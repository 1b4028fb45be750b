package core

import (
	"testing"
	"testing/quick"

	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
)

// Property tests pinning the exactness discipline of the parallel query
// path: partitioning the skim's domain scan across goroutines must be
// bit-for-bit invisible — identical dense vectors, identical residual
// counters, identical decomposed estimates — for arbitrary streams, thresholds and worker counts, exactly as PR 1's
// tests pinned UpdateBatch ≡ sequential Update.

func sketchesEqual(a, b *HashSketch) bool {
	if a.NetCount() != b.NetCount() || a.GrossCount() != b.GrossCount() {
		return false
	}
	for j := 0; j < a.cfg.Tables; j++ {
		for k := 0; k < a.cfg.Buckets; k++ {
			if a.counters[j*a.cfg.Buckets+k] != b.counters[j*b.cfg.Buckets+k] {
				return false
			}
		}
	}
	return true
}

func densesEqual(a, b stream.FreqVector) bool {
	if len(a) != len(b) {
		return false
	}
	for v, w := range a {
		if b[v] != w {
			return false
		}
	}
	return true
}

// Property: the parallel skim extracts the identical dense vector and
// leaves identical residual counters, for any stream, any positive
// threshold and any worker count (including counts exceeding the
// domain).
func TestQuickParallelSkimEquivalence(t *testing.T) {
	c := cfg(5, 32, 21)
	f := func(vals []uint16, weights []int8, thrRaw uint8, workersRaw uint8) bool {
		s := MustNewHashSketch(c)
		stream.Apply(miniStream(vals, weights), s)
		thr := int64(thrRaw%64) + 1
		workers := int(workersRaw%9) + 2 // 2..10 goroutines
		seq, par := s.Clone(), s.Clone()
		seqDense, err1 := seq.SkimDense(512, thr)
		parDense, err2 := par.SkimDenseParallel(512, thr, workers)
		if err1 != nil || err2 != nil {
			return false
		}
		return densesEqual(seqDense, parDense) && sketchesEqual(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: EstimateJoin with Workers set produces the exact decomposed
// estimate of the sequential run — Total, all four components, thresholds
// and dense counts — with and without skimming.
func TestQuickEstimateJoinWorkersEquivalence(t *testing.T) {
	c := cfg(5, 32, 33)
	f := func(v1 []uint16, w1 []int8, v2 []uint16, w2 []int8, workersRaw uint8) bool {
		fs, gs := MustNewHashSketch(c), MustNewHashSketch(c)
		stream.Apply(miniStream(v1, w1), fs)
		stream.Apply(miniStream(v2, w2), gs)
		workers := int(workersRaw%7) + 2
		seq, err1 := EstimateJoin(fs, gs, 512, nil)
		par, err2 := EstimateJoin(fs, gs, 512, &Options{Workers: workers})
		if err1 != nil || err2 != nil || seq != par {
			return false
		}
		rawSeq, err1 := EstimateJoin(fs, gs, 512, &Options{NoSkim: true})
		rawPar, err2 := EstimateJoin(fs, gs, 512, &Options{NoSkim: true, Workers: workers})
		return err1 == nil && err2 == nil && rawSeq == rawPar
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scratch-buffer median used by the parallel scan agrees
// with stats.MedianInt64 on every input.
func TestQuickMedianScratchMatchesStats(t *testing.T) {
	f := func(raw []int64) bool {
		if len(raw) == 0 {
			return true
		}
		scratch := make([]int64, len(raw))
		return medianScratch(raw, scratch) == stats.MedianInt64(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSkimDenseParallelValidation(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 16, 1))
	if _, err := s.SkimDenseParallel(64, 0, 4); err == nil {
		t.Fatal("expected error for non-positive threshold")
	}
	if _, err := s.SkimDenseParallel(64, -3, 4); err == nil {
		t.Fatal("expected error for negative threshold")
	}
}

// Worker resolution: 0 and 1 are sequential, explicit counts pass
// through, negative selects per-CPU (at least one).
func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(0); got != 1 {
		t.Fatalf("resolveWorkers(0) = %d, want 1", got)
	}
	if got := resolveWorkers(1); got != 1 {
		t.Fatalf("resolveWorkers(1) = %d, want 1", got)
	}
	if got := resolveWorkers(6); got != 6 {
		t.Fatalf("resolveWorkers(6) = %d, want 6", got)
	}
	if got := resolveWorkers(-1); got < 1 {
		t.Fatalf("resolveWorkers(-1) = %d, want >= 1", got)
	}
}

// A directed (non-quick) check at a domain large enough to give every
// worker several chunks, so the range-partition arithmetic (remainder
// distribution, final range end) is exercised beyond the tiny quick
// domains.
func TestParallelSkimLargeDomainIdentical(t *testing.T) {
	const domain = 1 << 16
	s := MustNewHashSketch(cfg(7, 256, 5))
	for i := 0; i < 50000; i++ {
		s.Update(uint64(i*2654435761)%domain, 1+int64(i%3))
	}
	thr := s.DefaultSkimThreshold()
	for _, workers := range []int{2, 3, 7, 16} {
		seq, par := s.Clone(), s.Clone()
		seqDense, err := seq.SkimDense(domain, thr)
		if err != nil {
			t.Fatal(err)
		}
		parDense, err := par.SkimDenseParallel(domain, thr, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !densesEqual(seqDense, parDense) {
			t.Fatalf("workers=%d: dense vectors differ (%d vs %d entries)", workers, len(seqDense), len(parDense))
		}
		if !sketchesEqual(seq, par) {
			t.Fatalf("workers=%d: residual counters differ", workers)
		}
	}
}
