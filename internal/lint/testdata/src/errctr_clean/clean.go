// Clean fixture for the errctr analyzer: the sanctioned forms —
// errors.Is for sentinels, a RetryAfter on every Reject, %w wraps.
package errctr_clean

import (
	"errors"
	"fmt"
	"io"
)

var ErrQuotaExceeded = errors.New("quota exceeded")

// errors.Is survives wrapping.
func checkQuota(err error) bool {
	return errors.Is(err, ErrQuotaExceeded)
}

// nil comparisons are idiomatic, and io.EOF is not an Err* sentinel.
func done(err error) bool {
	return err == nil || err == io.EOF
}

type Reject struct {
	Code       uint16
	RetryAfter uint32
}

// Keyed literal with the hint, and a positional literal (every field
// set by construction).
func reject() Reject {
	return Reject{Code: 1, RetryAfter: 2}
}

func rejectPositional() Reject {
	return Reject{1, 2}
}

// %w preserves the chain; non-error final verbs are fine.
func wrap(err error) error {
	return fmt.Errorf("ingest failed: %w", err)
}

func describe(n int) error {
	return fmt.Errorf("bad group count %v", n)
}
