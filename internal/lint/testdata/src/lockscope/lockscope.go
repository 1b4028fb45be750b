// Fixture for the lockscope analyzer: estimation entry points called
// while an engine-style mutex is held.
package lockscope

import (
	"sync"

	"skimsketch/internal/lint/testdata/src/lockscope/core"
)

type engine struct {
	mu      sync.Mutex
	applyMu sync.RWMutex
	left    *core.Sketch
	right   *core.Sketch
	domain  uint64
}

// Bad: estimating between Lock and Unlock.
func (e *engine) answerUnderLock() int64 {
	e.mu.Lock()
	est := core.EstimateJoin(e.left, e.right, e.domain) // want `O\(domain\) entry point EstimateJoin while e\.mu\.Lock is held`
	e.mu.Unlock()
	return est
}

// Bad: a deferred unlock holds the mutex for the whole body.
func (e *engine) answerUnderDeferredLock() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.left.SkimDenseParallel(e.domain, 10, 4)) // want `O\(domain\) entry point SkimDenseParallel`
}

// Bad: the read side of an RWMutex still blocks writers.
func (e *engine) skimUnderRLock() map[uint64]int64 {
	e.applyMu.RLock()
	defer e.applyMu.RUnlock()
	return e.left.SkimDense(e.domain, 10) // want `O\(domain\) entry point SkimDense while e\.applyMu\.RLock is held`
}

// Bad: a lock taken inside a branch covers the rest of that branch.
func (e *engine) answerLockedInBranch(fresh bool) int64 {
	if fresh {
		e.mu.Lock()
		est := core.EstimateJoin(e.left, e.right, e.domain) // want `EstimateJoin while e\.mu\.Lock is held`
		e.mu.Unlock()
		return est
	}
	return 0
}

// Suppressed: an acknowledged, justified exception stays quiet.
func (e *engine) answerSuppressed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	//sketchlint:ignore lockscope -- fixture exercising the suppression directive
	return core.EstimateJoin(e.left, e.right, e.domain)
}
