package core

import (
	"runtime"
	"sync"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
)

// Parallel variants of the query-time estimation procedures. Every
// function here is bit-for-bit equivalent to its sequential counterpart:
// the SKIMDENSE extraction test reads counters without mutating them (the
// subtraction happens once, after the scan; see scan.go), so partitioning
// the domain across workers changes nothing but wall-clock time; the
// per-table rows of the subjoin estimators are independent, so computing them
// concurrently feeds the exact same slice to the median. Property tests
// in parallel_test.go pin the equivalence for arbitrary streams, domains,
// thresholds and worker counts.

// resolveWorkers maps a Workers knob to a goroutine count: n > 1 is taken
// as-is, n in {0, 1} means sequential (the backward-compatible zero
// value), and n < 0 selects one worker per available CPU.
func resolveWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n == 0 {
		return 1
	}
	return n
}

// SkimDenseParallel is SkimDense with the domain scan partitioned into
// disjoint contiguous value ranges across workers goroutines (workers ≤ 1
// degenerates to the sequential scan; workers < 0 uses one per CPU). The
// returned dense vector and the skimmed counters are identical to
// SkimDense's for every input.
func (s *HashSketch) SkimDenseParallel(domain uint64, threshold int64, workers int) (stream.FreqVector, error) {
	dense, err := skim([]*HashSketch{s}, []int64{threshold}, domain, workers)
	if err != nil {
		return nil, err
	}
	return dense[0], nil
}

// medianScratch returns stats.MedianInt64(xs) using a caller-provided
// scratch buffer instead of allocating: the multiset's sorted order is
// unique, so the lower-middle element is identical whatever sort
// produces it.
func medianScratch(xs, scratch []int64) int64 {
	copy(scratch, xs)
	for i := 1; i < len(scratch); i++ {
		x := scratch[i]
		j := i - 1
		for j >= 0 && scratch[j] > x {
			scratch[j+1] = scratch[j]
			j--
		}
		scratch[j+1] = x
	}
	return scratch[(len(scratch)-1)/2]
}

// forEachTable runs fn(j) for every table index in [0, d), striped across
// at most `workers` goroutines. Rows are independent in every caller, so
// execution order cannot affect results.
func forEachTable(d, workers int, fn func(j int)) {
	w := workers
	if w > d {
		w = d
	}
	if w <= 1 {
		for j := 0; j < d; j++ {
			fn(j)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for j := start; j < d; j += w {
				fn(j)
			}
		}(i)
	}
	wg.Wait()
}

// subJoinWorkers is subJoin with per-table rows computed concurrently.
// Concurrent read-only iteration over the dense map is safe; each worker
// writes only its own rows[j] slots.
func subJoinWorkers(dense stream.FreqVector, sk *HashSketch, workers int) int64 {
	if len(dense) == 0 {
		return 0
	}
	d, b := sk.cfg.Tables, sk.cfg.Buckets
	rows := make([]int64, d)
	forEachTable(d, workers, func(j int) {
		var sum int64
		for v, w := range dense {
			k, sign := sk.rows[j].At(hashfam.PowersOf(v), uint64(b))
			sum += w * sk.counters[j*b+k] * sign
		}
		rows[j] = sum
	})
	return stats.MedianInt64(rows)
}

// sparseSparseWorkers is sparseSparse with per-table rows computed
// concurrently.
func sparseSparseWorkers(f, g *HashSketch, workers int) int64 {
	d, b := f.cfg.Tables, f.cfg.Buckets
	rows := make([]int64, d)
	forEachTable(d, workers, func(j int) {
		var sum int64
		base := j * b
		for k := 0; k < b; k++ {
			sum += f.counters[base+k] * g.counters[base+k]
		}
		rows[j] = sum
	})
	return stats.MedianInt64(rows)
}
