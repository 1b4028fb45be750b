package core

import (
	"fmt"

	"skimsketch/internal/stream"
)

// SkimDense implements procedure SKIMDENSE (Figure 3): it extracts every
// domain value whose estimated |frequency| is at least threshold into the
// returned dense frequency vector, and subtracts those estimates from the
// sketch's counters (Steps 8–9), leaving a *skimmed* sketch that reflects
// only the residual (sparse) frequencies. With threshold T = Θ(n/√b) the
// paper's Theorem 4 gives, with high probability, residual frequencies
// all below 2T and no larger than the originals.
//
// Like the paper's Step 6, only values with estimate ≥ threshold are
// extracted: frequencies in the stream model are non-negative, so a large
// *negative* estimate can only be collision noise, and extracting it
// would plant a phantom frequency in the residual that corrupts the
// subjoin estimates.
//
// This implementation tests the whole domain [0, domain) (see scan.go)
// without visiting it: the candidates are the values whose bucket is
// hot (|counter| ≥ threshold) in one of ⌊(d−1)/2⌋+1 tables, a superset
// of the dense set, listed by inverting the bucket hash: (hot buckets
// in those tables)·domain/b of them, plus O(log p) per hot bucket. A
// candidate whose bucket is cold in more than ⌊(d−1)/2⌋ tables is
// rejected after at most d bucket hashes, and only the rest get the
// exact test through the hashfam.Row kernel; the scan is O(domain·d)
// only when every bucket is hot.
// Package dyadic provides the O(b·d·log m) dyadic-interval variant of
// Section 4.2 and tests verify the two extract identical dense sets, and
// SkimDenseParallel partitions the domain across goroutines with
// bit-identical results. The sketch is mutated; callers who need to
// preserve the synopsis should Clone first (EstimateJoin does).
func (s *HashSketch) SkimDense(domain uint64, threshold int64) (stream.FreqVector, error) {
	return s.SkimDenseParallel(domain, threshold, 1)
}

func errSkimThreshold(threshold int64) error {
	return fmt.Errorf("core: skim threshold must be positive, got %d", threshold)
}

// SkimValues performs the (one-sided) extraction test and counter
// subtraction for an explicit candidate set instead of a full domain
// scan. It is the back-end shared with the dyadic skimmer, which
// discovers the candidates by descending the interval hierarchy.
func (s *HashSketch) SkimValues(candidates []uint64, threshold int64) (stream.FreqVector, error) {
	if threshold <= 0 {
		return nil, errSkimThreshold(threshold)
	}
	dense := stream.NewFreqVector()
	for _, v := range candidates {
		if _, seen := dense[v]; seen {
			continue
		}
		if est := s.PointEstimate(v); est >= threshold {
			dense[v] = est
		}
	}
	s.subtract(dense)
	return dense, nil
}

// Subtract removes a dense estimate vector from the owning bucket of
// every table, preserving sketch linearity: afterwards the counters
// summarize the residual frequency vector f − f̂_dense. SkimDense and
// SkimValues call it internally; the dyadic skimmer also uses it to keep
// its higher-level sketches consistent after an extraction.
func (s *HashSketch) Subtract(dense stream.FreqVector) {
	s.subtract(dense)
}

// subtract folds −dense into the counters through fold, a chunk at a
// time. Negating the weight is exact in two's complement, so subtracting
// w·ξ and adding (−w)·ξ leave the same counters.
func (s *HashSketch) subtract(dense stream.FreqVector) {
	var buf [updateChunk]stream.Update
	n := 0
	for v, w := range dense {
		buf[n] = stream.Update{Value: v, Weight: -w}
		if n++; n == len(buf) {
			s.fold(buf[:n])
			n = 0
		}
	}
	s.fold(buf[:n])
}
