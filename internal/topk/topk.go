// Package topk tracks the k most frequent stream values online with the
// COUNTSKETCH algorithm of Charikar, Chen & Farach-Colton (ICALP 2002) —
// the data structure the paper adapts into SKIMDENSE. A Tracker couples a
// core.HashSketch with a small candidate heap: each arriving value's
// point estimate is compared against the current top-k and the set is
// maintained incrementally, so no domain scan is needed at query time.
package topk

import (
	"container/heap"
	"fmt"
	"sort"

	"skimsketch/internal/core"
)

// Entry is one tracked heavy hitter.
type Entry struct {
	Value    uint64
	Estimate int64
}

// Tracker maintains the approximate top-k values of a stream.
type Tracker struct {
	k      int
	sketch *core.HashSketch
	heap   entryHeap      // min-heap over estimates
	pos    map[uint64]int // value → heap index
}

// New returns a tracker for the k most frequent values using a hash
// sketch with the given configuration.
func New(k int, cfg core.Config) (*Tracker, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topk: k must be positive, got %d", k)
	}
	sk, err := core.NewHashSketch(cfg)
	if err != nil {
		return nil, err
	}
	return &Tracker{k: k, sketch: sk, pos: make(map[uint64]int)}, nil
}

// Update folds one stream element and refreshes the candidate set. It
// implements stream.Sink.
func (t *Tracker) Update(value uint64, weight int64) {
	t.sketch.Update(value, weight)
	est := t.sketch.PointEstimate(value)
	if i, ok := t.pos[value]; ok {
		t.heap[i].Estimate = est
		heap.Fix(&t.heap, i)
		t.shedNonPositive()
		return
	}
	if est <= 0 {
		return
	}
	if len(t.heap) < t.k {
		heap.Push(&t.heap, &heapEntry{tracker: t, Entry: Entry{Value: value, Estimate: est}})
		return
	}
	if est > t.heap[0].Estimate {
		evicted := t.heap[0].Value
		delete(t.pos, evicted)
		t.heap[0] = &heapEntry{tracker: t, Entry: Entry{Value: value, Estimate: est}}
		t.pos[value] = 0
		heap.Fix(&t.heap, 0)
	}
}

// shedNonPositive drops candidates whose estimate fell to ≤ 0 (possible
// under deletes).
func (t *Tracker) shedNonPositive() {
	for len(t.heap) > 0 && t.heap[0].Estimate <= 0 {
		e := heap.Pop(&t.heap).(*heapEntry)
		delete(t.pos, e.Value)
	}
}

// Top returns the tracked entries, most frequent first.
func (t *Tracker) Top() []Entry {
	out := make([]Entry, 0, len(t.heap))
	for _, e := range t.heap {
		// Re-read estimates so the report reflects the final sketch state.
		out = append(out, Entry{Value: e.Value, Estimate: t.sketch.PointEstimate(e.Value)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimate != out[j].Estimate {
			return out[i].Estimate > out[j].Estimate
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// heapEntry keeps the tracker pointer so swaps can maintain pos.
type heapEntry struct {
	tracker *Tracker
	Entry
}

type entryHeap []*heapEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].Estimate < h[j].Estimate }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].tracker.pos[h[i].Value] = i
	h[j].tracker.pos[h[j].Value] = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*heapEntry)
	e.tracker.pos[e.Value] = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	delete(e.tracker.pos, e.Value)
	return e
}
