// Fixture for the errctr analyzer: broken error contracts — sentinel
// comparisons that wrapping defeats, binary 429s with no Retry-After
// hint, and fmt.Errorf chains severed by %v.
package errctr

import (
	"errors"
	"fmt"
)

var ErrQuotaExceeded = errors.New("quota exceeded")

// Bad: a wrapped ErrQuotaExceeded never compares equal.
func checkQuota(err error) bool {
	return err == ErrQuotaExceeded // want `sentinel error ErrQuotaExceeded compared with ==`
}

// Bad: same bug with != and the sentinel on the left.
func stillQuota(err error) bool {
	if ErrQuotaExceeded != err { // want `sentinel error ErrQuotaExceeded compared with !=`
		return false
	}
	return true
}

// Reject mirrors the wire package's binary 429.
type Reject struct {
	Code       uint16
	RetryAfter uint32
}

// Bad: a Reject without its RetryAfter hint leaves the client to
// guess when to resend.
func reject() Reject {
	return Reject{Code: 1} // want `Reject literal without a RetryAfter hint`
}

// Bad: %v formats the error but severs the errors.Is/As chain.
func wrap(err error) error {
	return fmt.Errorf("ingest failed: %v", err) // want `fmt.Errorf formats the error with %v`
}

// Bad: %s is the same severed chain.
func wrapS(err error) error {
	return fmt.Errorf("decode frame %d: %s", 3, err) // want `fmt.Errorf formats the error with %s`
}
