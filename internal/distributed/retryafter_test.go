package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"
)

// TestParseRetryAfter covers both RFC 9110 Retry-After forms. The
// HTTP-date cases are the regression: a sender that only understands
// delay-seconds turns a date hint into "retry immediately".
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"empty", "", 0},
		{"zero seconds", "0", 0},
		{"delay seconds", "2", 2 * time.Second},
		{"negative seconds", "-5", 0},
		{"seconds capped", "3600", MaxRetryAfter},
		{"http date future", now.Add(3 * time.Second).Format(http.TimeFormat), 3 * time.Second},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http date capped", now.Add(time.Hour).Format(http.TimeFormat), MaxRetryAfter},
		{"rfc850 date", now.Add(4 * time.Second).Format("Monday, 02-Jan-06 15:04:05 MST"), 4 * time.Second},
		{"ansi c date", now.Add(5 * time.Second).Format(time.ANSIC), 5 * time.Second},
		{"garbage", "soon", 0},
		{"float seconds", "1.5", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ParseRetryAfter(tc.v, now); got != tc.want {
				t.Fatalf("ParseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// TestDelayAfterFloorsByHint pins the composition of the exponential
// policy with a server hint: the hint is a floor (never a ceiling), it
// sees through wrapping, it is capped at MaxRetryAfter, and failures
// without a hint keep the pure Backoff delay.
func TestDelayAfterFloorsByHint(t *testing.T) {
	b := Backoff{
		Base:   time.Millisecond,
		Max:    8 * time.Millisecond,
		Jitter: 0, // deterministic: delayAfter == max(Delay, hint)
		Rand:   rand.New(rand.NewSource(1)),
	}
	cases := []struct {
		name    string
		attempt int
		err     error
		want    time.Duration
	}{
		{"no hint", 0, errors.New("boom"), time.Millisecond},
		{"hint above backoff", 0, &RetryAfterError{After: 20 * time.Millisecond}, 20 * time.Millisecond},
		{"hint below backoff", 3, &RetryAfterError{After: 2 * time.Millisecond}, 8 * time.Millisecond},
		{"zero hint", 1, &RetryAfterError{After: 0}, 2 * time.Millisecond},
		{"wrapped hint", 0,
			fmt.Errorf("ship: %w", &RetryAfterError{After: 15 * time.Millisecond}),
			15 * time.Millisecond},
		{"hint capped", 0, &RetryAfterError{After: time.Hour}, MaxRetryAfter},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := b.delayAfter(tc.attempt, tc.err); got != tc.want {
				t.Fatalf("delayAfter(%d, %v) = %v, want %v", tc.attempt, tc.err, got, tc.want)
			}
		})
	}
}

// TestRetryAfterErrorUnwrap: errors.Is must see the underlying failure
// through the hint wrapper, so callers can still classify it.
func TestRetryAfterErrorUnwrap(t *testing.T) {
	boom := errors.New("boom")
	err := fmt.Errorf("pull shard 2: %w", &RetryAfterError{After: time.Second, Err: boom})
	if !errors.Is(err, boom) {
		t.Fatal("errors.Is lost the wrapped failure")
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) || ra.After != time.Second {
		t.Fatalf("errors.As did not recover the hint: %v", err)
	}
}

// TestRetryHonorsRetryAfterFloor drives Backoff.Retry against a call
// that rejects with a Retry-After hint well above the (microsecond)
// backoff: the next attempt must not happen before the hint elapses.
// This is the merger-pulls-shard contract — a shard shedding load with
// 429 + Retry-After actually holds the retrying peer back.
func TestRetryHonorsRetryAfterFloor(t *testing.T) {
	const hint = 50 * time.Millisecond
	var rejected time.Time
	var delivered time.Time
	err := fastBackoff(5).Retry(context.Background(), func(context.Context) error {
		if rejected.IsZero() {
			rejected = time.Now()
			return &RetryAfterError{After: hint, Err: errors.New("shard overloaded")}
		}
		delivered = time.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gap := delivered.Sub(rejected); gap < hint {
		t.Fatalf("retried after %v; Retry-After hint of %v was not honored as a floor", gap, hint)
	}
}
