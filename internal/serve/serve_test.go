package serve

import (
	"errors"
	"strconv"
	"testing"
)

// TestParseIdempotencyKeyUnwraps: a non-numeric seq wraps the strconv
// error with %w so handlers can errors.As to *strconv.NumError.
func TestParseIdempotencyKeyUnwraps(t *testing.T) {
	_, err := parseIdempotencyKey("client-1:notanumber")
	if err == nil {
		t.Fatal("malformed seq accepted")
	}
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Errorf("error %q does not unwrap to *strconv.NumError", err)
	}
}
