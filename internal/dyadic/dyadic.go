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
	"runtime"
	"sync"

	"skimsketch/internal/core"
	"skimsketch/internal/hashfam"
	"skimsketch/internal/stream"
)

// Hierarchy is the stack of per-level hash sketches.
type Hierarchy struct {
	bits   int
	cfg    core.Config
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
	return &Hierarchy{bits: bits, cfg: cfg, levels: levels}, nil
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

// Compatible reports whether two hierarchies share structure and seeds.
func (h *Hierarchy) Compatible(o *Hierarchy) bool {
	return h.bits == o.bits && h.cfg == o.cfg
}

// DefaultSkimThreshold mirrors core.HashSketch.DefaultSkimThreshold on
// the base sketch.
func (h *Hierarchy) DefaultSkimThreshold() int64 {
	return h.levels[0].DefaultSkimThreshold()
}

// candidateValues is the dyadic descent with each level's frontier split
// into contiguous segments estimated by up to `workers` goroutines. Point
// estimates are read-only and segment results are concatenated in
// frontier order, so the returned candidate list is identical to the
// sequential descent's for every worker count.
func (h *Hierarchy) candidateValues(threshold int64, workers int) []uint64 {
	frontier := []uint64{0}
	for l := h.bits; l >= 1; l-- {
		sk := h.levels[l]
		frontier = expandFrontier(sk, frontier, threshold, workers)
		if len(frontier) == 0 {
			break
		}
	}
	return frontier
}

// expandFrontier applies the one-sided extraction test (matching
// SkimValues: interval frequencies are non-negative in the model this
// descent assumes) to every frontier interval and returns the surviving
// intervals' children, preserving frontier order.
func expandFrontier(sk *core.HashSketch, frontier []uint64, threshold int64, workers int) []uint64 {
	if workers <= 1 || len(frontier) < 2*workers {
		next := frontier[:0:0]
		for _, u := range frontier {
			if sk.PointEstimate(u) >= threshold {
				next = append(next, u<<1, u<<1|1)
			}
		}
		return next
	}
	parts := make([][]uint64, workers)
	var wg sync.WaitGroup
	chunk, rem := len(frontier)/workers, len(frontier)%workers
	lo := 0
	for i := 0; i < workers; i++ {
		size := chunk
		if i < rem {
			size++
		}
		hi := lo + size
		wg.Add(1)
		go func(i int, seg []uint64) {
			defer wg.Done()
			var out []uint64
			for _, u := range seg {
				if sk.PointEstimate(u) >= threshold {
					out = append(out, u<<1, u<<1|1)
				}
			}
			parts[i] = out
		}(i, frontier[lo:hi])
		lo = hi
	}
	wg.Wait()
	var next []uint64
	for _, p := range parts {
		next = append(next, p...)
	}
	return next
}

// Skim implements the optimized SKIMDENSE: it finds candidate values via
// the dyadic descent, extracts the dense ones from the base sketch, and
// subtracts the extracted estimates from every level so the hierarchy
// remains a consistent summary of the residual stream. A threshold ≤ 0
// selects DefaultSkimThreshold. It returns the extracted dense vector.
func (h *Hierarchy) Skim(threshold int64) (stream.FreqVector, error) {
	return h.SkimParallel(threshold, 1)
}

// SkimParallel is Skim with each level's candidate descent partitioned
// across up to `workers` goroutines (≤ 1 is sequential, < 0 one per CPU),
// mirroring core.SkimDenseParallel's exactness guarantee: the extracted
// dense vector and every level's residual counters are identical to the
// sequential skim's.
func (h *Hierarchy) SkimParallel(threshold int64, workers int) (stream.FreqVector, error) {
	if threshold <= 0 {
		threshold = h.DefaultSkimThreshold()
	}
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	candidates := h.candidateValues(threshold, workers)
	dense, err := h.levels[0].SkimValues(candidates, threshold)
	if err != nil {
		return nil, err
	}
	// Keep levels ≥ 1 consistent: subtract each dense estimate from the
	// interval it belongs to at every level. Levels are independent, so
	// they can be rolled up and subtracted concurrently.
	subtractLevel := func(l int) {
		parent := stream.NewFreqVector()
		for v, w := range dense {
			parent.Update(v>>uint(l), w)
		}
		h.levels[l].Subtract(parent)
	}
	if workers <= 1 || h.bits < 2 {
		for l := 1; l <= h.bits; l++ {
			subtractLevel(l)
		}
		return dense, nil
	}
	w := workers
	if w > h.bits {
		w = h.bits
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for l := start; l <= h.bits; l += w {
				subtractLevel(l)
			}
		}(i + 1)
	}
	wg.Wait()
	return dense, nil
}

// EstimateJoin runs the full skimmed-sketch join estimation over two
// hierarchies: dyadic skim on each, then the four-way subjoin combination
// on the base sketches. Thresholds ≤ 0 select the per-stream defaults.
// The hierarchies ARE mutated (skimmed); clone upstream if the synopsis
// must survive.
func EstimateJoin(f, g *Hierarchy, thresholdF, thresholdG int64) (core.Estimate, error) {
	return EstimateJoinParallel(f, g, thresholdF, thresholdG, 1)
}

// EstimateJoinParallel is EstimateJoin with both skims run through
// SkimParallel. The estimate is bit-identical to EstimateJoin's for any
// worker count.
func EstimateJoinParallel(f, g *Hierarchy, thresholdF, thresholdG int64, workers int) (core.Estimate, error) {
	if !f.Compatible(g) {
		return core.Estimate{}, fmt.Errorf("dyadic: hierarchies are not a pair")
	}
	fd, err := f.SkimParallel(thresholdF, workers)
	if err != nil {
		return core.Estimate{}, err
	}
	gd, err := g.SkimParallel(thresholdG, workers)
	if err != nil {
		return core.Estimate{}, err
	}
	return core.EstimateJoinSkimmed(f.Base(), g.Base(), fd, gd)
}
