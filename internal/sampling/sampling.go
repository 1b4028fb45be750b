// Package sampling implements the random-sampling baseline the paper
// dismisses (Sections 1–2): reservoir samples (Vitter, 1985) over each
// stream and a cross-product join-size estimator built from them. It
// exists so the paper's two claims about sampling are checkable in this
// repository:
//
//  1. sampling cannot handle delete operations — a deletion may refer to
//     an element that was never sampled, so the estimator refuses streams
//     containing deletes rather than silently degrading;
//  2. sampling is far less accurate than sketches for join sizes at equal
//     space, which the experiment harness demonstrates.
package sampling

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrDeletesUnsupported reports that a stream contained delete operations,
// which invalidate reservoir samples.
var ErrDeletesUnsupported = errors.New("sampling: reservoir samples cannot process deletes")

// Reservoir maintains a uniform random sample of k elements from an
// insert-only stream using Vitter's algorithm R. A weight-w update counts
// as w repetitions of the element.
type Reservoir struct {
	k         int
	n         int64 // elements seen (after weight expansion)
	sample    []uint64
	rng       *rand.Rand
	sawDelete bool
}

// NewReservoir returns a reservoir holding at most k elements, drawing
// its replacement decisions from a fresh source seeded with seed.
func NewReservoir(k int, seed int64) (*Reservoir, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sampling: reservoir size must be positive, got %d", k)
	}
	return &Reservoir{k: k, sample: make([]uint64, 0, k), rng: rand.New(rand.NewSource(seed))}, nil
}

// Update implements stream.Sink. Deletes (negative weights) poison the
// reservoir: subsequent estimates return ErrDeletesUnsupported.
func (r *Reservoir) Update(value uint64, weight int64) {
	if weight < 0 {
		r.sawDelete = true
		return
	}
	for i := int64(0); i < weight; i++ {
		r.n++
		if len(r.sample) < r.k {
			r.sample = append(r.sample, value)
			continue
		}
		if j := r.rng.Int63n(r.n); j < int64(r.k) {
			r.sample[j] = value
		}
	}
}

// Size returns the number of sampled elements (≤ k).
func (r *Reservoir) Size() int { return len(r.sample) }

// JoinEstimate estimates COUNT(F ⋈ G) from the two reservoirs by scaling
// the number of matching sample pairs: the expected number of matches
// between independent uniform samples is |S_F|·|S_G|·J/(n_F·n_G).
func JoinEstimate(f, g *Reservoir) (int64, error) {
	if f.sawDelete || g.sawDelete {
		return 0, ErrDeletesUnsupported
	}
	if f.Size() == 0 || g.Size() == 0 {
		return 0, nil
	}
	counts := make(map[uint64]int64, f.Size())
	for _, v := range f.sample {
		counts[v]++
	}
	var matches int64
	for _, v := range g.sample {
		matches += counts[v]
	}
	scale := float64(f.n) * float64(g.n) / (float64(f.Size()) * float64(g.Size()))
	return int64(float64(matches) * scale), nil
}
