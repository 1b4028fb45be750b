// Clean fixture for the poolown analyzer: the sanctioned ownership
// patterns — Get/use/Put on every path, deferred Put, a release
// callback handed to the callee (the SKSP listener's shape). Nothing
// here may be flagged.
package poolown_clean

import (
	"errors"
	"sync"
)

type frame struct {
	buf    []byte
	groups []int
}

var pool = sync.Pool{New: func() any { return new(frame) }}

var errQuota = errors.New("quota")

// Straight-line Get/use/Put.
func roundTrip() int {
	f := pool.Get().(*frame)
	n := len(f.buf)
	pool.Put(f)
	return n
}

// Deferred Put: later uses run before the deferred release.
func deferredPut() int {
	f := pool.Get().(*frame)
	defer pool.Put(f)
	return len(f.buf)
}

// Put on an early-exit branch, then use on the fall-through: the
// branch returns, so ownership still holds below it.
func putOnErrorPath(decode func(*frame) error) int {
	f := pool.Get().(*frame)
	if err := decode(f); err != nil {
		pool.Put(f)
		return 0
	}
	n := len(f.buf)
	pool.Put(f)
	return n
}

// The stream-listener shape: copy out what the response needs, hand
// the callee a release callback, and Put only on the error paths where
// the callee never accepted the frame.
func handleData(ingest func([]int, func()) error) (int, bool) {
	f := pool.Get().(*frame)
	total := len(f.groups)
	err := ingest(f.groups, func() { pool.Put(f) })
	switch {
	case err == nil:
		return total, true
	case errors.Is(err, errQuota):
		pool.Put(f)
		return 0, false
	default:
		pool.Put(f)
		return 0, false
	}
}

// A loop that Gets a fresh frame each iteration.
func loopFresh(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		f := pool.Get().(*frame)
		total += len(f.buf)
		pool.Put(f)
	}
	return total
}
