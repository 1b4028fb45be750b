package core

import (
	"runtime"

	"skimsketch/internal/stream"
)

// Query-time parallelism splits only the SKIMDENSE domain scan, which is
// all but microseconds of an estimate. The extraction test reads
// counters without mutating them (the subtraction happens once, after
// the scan; see scan.go), so partitioning the domain across workers
// changes nothing but wall-clock time. Property tests in
// parallel_test.go pin the equivalence for arbitrary streams, domains,
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
