// Package stats provides the small numerical toolkit shared by the
// estimators and the experiment harness: exact medians (the boosting step
// of every sketch estimator), the paper's symmetric error metric, and
// streaming mean/variance accumulation for result aggregation.
package stats

import (
	"math"
	"sort"
)

// MedianInt64 returns the median of xs (the lower of the two middle
// elements for even lengths, matching the usual sketch-boosting
// convention of an odd number of independent trials). xs is not modified.
// It panics on an empty slice: a median of nothing is a programming error
// in this codebase, not a recoverable condition.
func MedianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	tmp := make([]int64, len(xs))
	copy(tmp, xs)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[(len(tmp)-1)/2]
}

// MedianFloat64 returns the median of xs with the same conventions as
// MedianInt64.
func MedianFloat64(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	return tmp[(len(tmp)-1)/2]
}

// ErrorSanityBound is the paper's substitute error when an estimate is
// non-positive or absurdly small ("we simply consider the error to be a
// large constant, say 10").
const ErrorSanityBound = 10.0

// SymmetricError is the paper's evaluation metric (Section 5.1): a
// relative error that penalizes under- and over-estimates equally,
// computed as max(Ĵ/J, J/Ĵ) − 1. A non-positive estimate (or actual)
// yields ErrorSanityBound. An exactly correct estimate yields 0.
func SymmetricError(estimate, actual float64) float64 {
	if actual <= 0 || estimate <= 0 {
		return ErrorSanityBound
	}
	r := estimate / actual
	if r < 1 {
		r = 1 / r
	}
	e := r - 1
	if e > ErrorSanityBound {
		return ErrorSanityBound
	}
	return e
}

// RelativeError is the conventional |Ĵ − J| / J metric, reported alongside
// the symmetric metric in EXPERIMENTS.md for context.
func RelativeError(estimate, actual float64) float64 {
	if actual == 0 {
		if estimate == 0 {
			return 0
		}
		return ErrorSanityBound
	}
	return math.Abs(estimate-actual) / math.Abs(actual)
}

// Welford accumulates a running mean and variance in one pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
