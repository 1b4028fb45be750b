// Package workload generates the evaluation data streams of the paper's
// Section 5: Zipfian streams, right-shifted Zipfian streams (the knob that
// controls join size), uniform streams, and a census-like synthetic data
// set substituting for the proprietary Current Population Survey file (see
// DESIGN.md for the substitution rationale).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"skimsketch/internal/stream"
)

// Generator produces a sequence of domain values.
type Generator interface {
	// Next returns the next value.
	Next() uint64
	// Domain returns the domain size m; values are in [0, m).
	Domain() uint64
}

// Every generator in this package draws randomness exclusively from a
// private rand.New(rand.NewSource(seed)) built by its constructor.
// Nothing here touches the global math/rand source or the clock; the
// golden-stream tests pin the exact byte output per seed.

// rngFromSeed builds the package's canonical source for a seed.
func rngFromSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// MakeStream draws n insert updates from g.
func MakeStream(g Generator, n int) []stream.Update {
	out := make([]stream.Update, n)
	for i := range out {
		out[i] = stream.Insert(g.Next())
	}
	return out
}

// Zipf draws values from a Zipfian distribution over [0, m):
// P(i) ∝ 1/(i+1)^z. Unlike math/rand's Zipf it supports any z ≥ 0
// (the paper needs z = 1.0 exactly) via an explicit CDF table and binary
// search.
type Zipf struct {
	cdf    []float64
	domain uint64
	rng    *rand.Rand
}

// NewZipf builds the CDF table for a Zipf(z) distribution over [0, m),
// drawing from a fresh source seeded with seed.
func NewZipf(m uint64, z float64, seed int64) (*Zipf, error) {
	if m == 0 {
		return nil, fmt.Errorf("workload: domain must be positive")
	}
	if z < 0 {
		return nil, fmt.Errorf("workload: zipf parameter %v must be non-negative", z)
	}
	cdf := make([]float64, m)
	total := 0.0
	for i := uint64(0); i < m; i++ {
		total += math.Pow(float64(i+1), -z)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, domain: m, rng: rngFromSeed(seed)}, nil
}

// Next draws one value.
func (g *Zipf) Next() uint64 {
	u := g.rng.Float64()
	return uint64(sort.SearchFloat64s(g.cdf, u))
}

// Domain returns the domain size.
func (g *Zipf) Domain() uint64 { return g.domain }

// Shifted wraps a generator and adds a right shift modulo the domain,
// reproducing the paper's "right-shifted Zipfian" construction: the
// frequency of value v+s in the shifted stream equals the frequency of v
// in the base stream. Shift 0 makes a join with the base stream a
// self-join; increasing the shift shrinks the join size.
type Shifted struct {
	base  Generator
	shift uint64
}

// NewShifted wraps base with a right shift of s.
func NewShifted(base Generator, s uint64) *Shifted {
	return &Shifted{base: base, shift: s % base.Domain()}
}

// Next draws one shifted value.
func (g *Shifted) Next() uint64 {
	return (g.base.Next() + g.shift) % g.base.Domain()
}

// Domain returns the domain size.
func (g *Shifted) Domain() uint64 { return g.base.Domain() }

// Uniform draws values uniformly from [0, m).
type Uniform struct {
	domain uint64
	rng    *rand.Rand
}

// NewUniform returns a uniform generator over [0, m), drawing from a
// fresh source seeded with seed.
func NewUniform(m uint64, seed int64) *Uniform {
	return &Uniform{domain: m, rng: rngFromSeed(seed)}
}

// Next draws one value.
func (g *Uniform) Next() uint64 { return uint64(g.rng.Int63n(int64(g.domain))) }

// Domain returns the domain size.
func (g *Uniform) Domain() uint64 { return g.domain }

// WithDeletes interleaves delete noise into an insert stream: each
// original insert is kept, and with probability frac a copy of a previous
// value is inserted and later deleted again, exercising the general-update
// path without changing the net frequency vector.
func WithDeletes(updates []stream.Update, frac float64, seed int64) []stream.Update {
	rng := rngFromSeed(seed)
	out := make([]stream.Update, 0, len(updates)+int(2*frac*float64(len(updates))))
	var pendingDeletes []uint64
	for _, u := range updates {
		out = append(out, u)
		if rng.Float64() < frac {
			out = append(out, stream.Insert(u.Value))
			pendingDeletes = append(pendingDeletes, u.Value)
		}
		// Occasionally flush a pending delete.
		if len(pendingDeletes) > 0 && rng.Float64() < 0.5 {
			last := len(pendingDeletes) - 1
			out = append(out, stream.Delete(pendingDeletes[last]))
			pendingDeletes = pendingDeletes[:last]
		}
	}
	for _, v := range pendingDeletes {
		out = append(out, stream.Delete(v))
	}
	return out
}
