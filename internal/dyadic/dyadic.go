// Package dyadic implements the optimized SKIMDENSE of Section 4.2: a
// hierarchy of hash sketches over dyadic intervals that lets dense
// frequencies be extracted in O(b·d·log m) time instead of the O(m·d)
// full-domain scan of the reference implementation.
//
// The domain [0, 2^bits) is organized into bits+1 levels. At level ℓ each
// value v contributes to the dyadic interval v >> ℓ, so level 0 is the
// plain value sketch and level `bits` has a single interval covering the
// whole domain. Since interval frequencies are sums of their children's
// frequencies, an interval whose (estimated) frequency is below the skim
// threshold cannot contain a dense value — the descent prunes it. Only
// intervals that may contain dense values are expanded, and at most O(n/T)
// intervals per level can reach frequency T, giving the stated bound.
//
// Like the paper, the pruning argument assumes non-negative interval
// frequencies (insert-dominated streams); with heavily net-negative
// frequencies, cancellation inside an interval could mask a dense child.
package dyadic

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/hashfam"
	"skimsketch/internal/stream"
)

// Hierarchy is the stack of per-level hash sketches.
type Hierarchy struct {
	bits   int
	levels []*core.HashSketch // levels[ℓ] sketches v >> ℓ
}

// New returns a hierarchy over the domain [0, 2^bits). cfg.Seed seeds the
// whole hierarchy; per-level sketch seeds are derived from it, so two
// hierarchies built with equal (bits, cfg) are compatible level by level
// and their base sketches form a valid join pair.
func New(bits int, cfg core.Config) (*Hierarchy, error) {
	if bits < 0 || bits > 62 {
		return nil, fmt.Errorf("dyadic: bits must be in [0, 62], got %d", bits)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	levels := make([]*core.HashSketch, bits+1)
	for l, lcfg := range levelConfigs(bits, cfg) {
		sk, err := core.NewHashSketch(lcfg)
		if err != nil {
			return nil, err
		}
		levels[l] = sk
	}
	return &Hierarchy{bits: bits, levels: levels}, nil
}

// levelConfigs derives the bits+1 level-sketch configs: cfg's
// dimensions, with one seed per level drawn from cfg.Seed.
func levelConfigs(bits int, cfg core.Config) []core.Config {
	ss := hashfam.NewSeedStream(cfg.Seed)
	out := make([]core.Config, bits+1)
	for l := range out {
		out[l] = cfg
		out[l].Seed = ss.Next()
	}
	return out
}

// MustNew is New for static configurations.
func MustNew(bits int, cfg core.Config) *Hierarchy {
	h, err := New(bits, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Update folds one stream element into every level. It implements
// stream.Sink; the per-element cost is O(d·log m), the paper's
// logarithmic bound.
func (h *Hierarchy) Update(value uint64, weight int64) {
	for l, sk := range h.levels {
		sk.Update(value>>uint(l), weight)
	}
}

// Base returns the level-0 (plain value) sketch; after Skim it is the
// skimmed sketch to hand to core.EstimateJoinSkimmed.
func (h *Hierarchy) Base() *core.HashSketch { return h.levels[0] }

// DefaultSkimThreshold mirrors core.HashSketch.DefaultSkimThreshold on
// the base sketch.
func (h *Hierarchy) DefaultSkimThreshold() int64 {
	return h.levels[0].DefaultSkimThreshold()
}

// candidateValues is the dyadic descent: from the root interval down,
// each level keeps the children of every interval whose estimate passes
// the one-sided extraction test (matching SkimValues: interval
// frequencies are non-negative in the model this descent assumes). The
// survivors at level 0 are the candidate values, in ascending order.
func (h *Hierarchy) candidateValues(threshold int64) []uint64 {
	frontier := []uint64{0}
	for l := h.bits; l >= 1 && len(frontier) > 0; l-- {
		sk := h.levels[l]
		var next []uint64
		for _, u := range frontier {
			if sk.PointEstimate(u) >= threshold {
				next = append(next, u<<1, u<<1|1)
			}
		}
		frontier = next
	}
	return frontier
}

// Skim implements the optimized SKIMDENSE: it finds candidate values via
// the dyadic descent, extracts the dense ones from the base sketch, and
// subtracts the extracted estimates from every level so the hierarchy
// remains a consistent summary of the residual stream. A threshold ≤ 0
// selects DefaultSkimThreshold. It returns the extracted dense vector.
func (h *Hierarchy) Skim(threshold int64) (stream.FreqVector, error) {
	if threshold <= 0 {
		threshold = h.DefaultSkimThreshold()
	}
	dense, err := h.levels[0].SkimValues(h.candidateValues(threshold), threshold)
	if err != nil {
		return nil, err
	}
	// Keep levels ≥ 1 consistent: subtract each dense estimate from the
	// interval it belongs to at every level.
	for l := 1; l <= h.bits; l++ {
		parent := stream.NewFreqVector()
		for v, w := range dense {
			parent.Update(v>>uint(l), w)
		}
		h.levels[l].Subtract(parent)
	}
	return dense, nil
}
