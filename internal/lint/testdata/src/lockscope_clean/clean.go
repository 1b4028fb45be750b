// Clean fixture for lockscope: the sanctioned shapes. No want comments,
// so any diagnostic fails the run.
package lockscope_clean

import (
	"sync"

	"skimsketch/internal/lint/testdata/src/lockscope/core"
)

type engine struct {
	mu          sync.Mutex
	left, right *core.Sketch
	domain      uint64
}

// Snapshot under the lock, estimate outside it.
func (e *engine) answerSnapshotted() int64 {
	e.mu.Lock()
	fs, gs := e.left.Clone(), e.right.Clone()
	e.mu.Unlock()
	return core.EstimateJoin(fs, gs, e.domain)
}

// A branch that locks and returns leaves the fall-through path unlocked.
func (e *engine) answerUnlessCached(cached bool) int64 {
	if cached {
		e.mu.Lock()
		defer e.mu.Unlock()
		return 0
	}
	return core.EstimateJoin(e.left, e.right, e.domain)
}

// A goroutine spawned under the lock does not run inside it.
func (e *engine) answerAsync(out chan<- int64) {
	e.mu.Lock()
	fs, gs := e.left.Clone(), e.right.Clone()
	go func() { out <- core.EstimateJoin(fs, gs, e.domain) }()
	e.mu.Unlock()
}

// Cheap updates under the lock are fine.
func (e *engine) ingest(v uint64, w int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.left.Update(v, w)
	e.right.Update(v, w)
}
