package topk

import (
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func cfg(d, b int, seed uint64) core.Config { return core.Config{Tables: d, Buckets: b, Seed: seed} }

func TestNewValidation(t *testing.T) {
	if _, err := New(0, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := New(3, cfg(0, 8, 1)); err == nil {
		t.Fatal("expected error for bad sketch config")
	}
}

// mustNew is New for a test's fixed, valid arguments.
func mustNew(t *testing.T, k int, c core.Config) *Tracker {
	t.Helper()
	tr, err := New(k, c)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracksPlantedHeavyHitters(t *testing.T) {
	tr := mustNew(t, 3, cfg(7, 256, 5))
	heavy := map[uint64]int64{10: 5000, 200: 3000, 999: 2000}
	for v, w := range heavy {
		for i := int64(0); i < w; i++ {
			tr.Update(v, 1)
		}
	}
	u := workload.NewUniform(4096, 1)
	for i := 0; i < 5000; i++ {
		tr.Update(u.Next(), 1)
	}
	top := tr.Top()
	if len(top) != 3 {
		t.Fatalf("got %d entries, want 3", len(top))
	}
	if top[0].Value != 10 || top[1].Value != 200 || top[2].Value != 999 {
		t.Fatalf("wrong order: %+v", top)
	}
	for _, e := range top {
		want := heavy[e.Value]
		diff := e.Estimate - want
		if diff < 0 {
			diff = -diff
		}
		if diff > want/5 {
			t.Fatalf("estimate %d for %d too far from %d", e.Estimate, e.Value, want)
		}
	}
}

func TestInterleavedStreamOrder(t *testing.T) {
	// Heavy values arriving interleaved with noise must still win.
	tr := mustNew(t, 2, cfg(5, 128, 9))
	u := workload.NewUniform(1024, 2)
	for i := 0; i < 20000; i++ {
		tr.Update(u.Next(), 1)
		if i%4 == 0 {
			tr.Update(7, 1)
		}
		if i%8 == 0 {
			tr.Update(13, 1)
		}
	}
	top := tr.Top()
	if len(top) != 2 || top[0].Value != 7 || top[1].Value != 13 {
		t.Fatalf("top = %+v, want values 7 then 13", top)
	}
}

func TestDeletesEvictFromTop(t *testing.T) {
	tr := mustNew(t, 2, cfg(5, 64, 3))
	tr.Update(1, 100)
	tr.Update(2, 50)
	if got := len(tr.Top()); got != 2 {
		t.Fatalf("tracked %d, want 2", got)
	}
	tr.Update(1, -100) // net zero
	top := tr.Top()
	if len(top) != 1 || top[0].Value != 2 {
		t.Fatalf("after delete, top = %+v, want only value 2", top)
	}
}

func TestCapacityAndAccessors(t *testing.T) {
	tr := mustNew(t, 2, cfg(3, 32, 7))
	if tr.k != 2 {
		t.Fatalf("k = %d", tr.k)
	}
	for v := uint64(0); v < 10; v++ {
		tr.Update(v, int64(v+1))
	}
	if got := len(tr.Top()); got != 2 {
		t.Fatalf("tracked %d entries, capacity is 2", got)
	}
	if tr.sketch.NetCount() != 55 {
		t.Fatalf("sketch net = %d", tr.sketch.NetCount())
	}
}

func TestHeapPositionsStayConsistent(t *testing.T) {
	tr := mustNew(t, 4, cfg(5, 64, 11))
	// Churn hard: many values overtaking each other.
	for round := 0; round < 50; round++ {
		for v := uint64(0); v < 20; v++ {
			tr.Update(v, int64(v%5)+1)
		}
	}
	for v, i := range tr.pos {
		if i < 0 || i >= len(tr.heap) {
			t.Fatalf("pos[%d] = %d out of heap range", v, i)
		}
		if tr.heap[i].Value != v {
			t.Fatalf("pos map inconsistent: heap[%d].Value = %d, want %d", i, tr.heap[i].Value, v)
		}
	}
}

func TestSinkIntegration(t *testing.T) {
	tr := mustNew(t, 1, cfg(3, 32, 1))
	stream.Apply([]stream.Update{stream.Insert(5), stream.Insert(5)}, tr)
	top := tr.Top()
	if len(top) != 1 || top[0].Value != 5 || top[0].Estimate != 2 {
		t.Fatalf("top = %+v", top)
	}
}
