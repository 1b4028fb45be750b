// Package partition implements the sketch-partitioning baseline of
// Dobra, Garofalakis, Gehrke & Rastogi (SIGMOD 2002), the third method
// the paper positions against: the value domain is split into partitions
// using *a-priori* coarse frequency statistics, each partition gets its
// own basic-AGMS sketch pair, and the join size is estimated as the sum
// of per-partition estimates. Isolating the dominant frequencies into
// their own partitions shrinks the per-partition self-join sizes that
// drive the AGMS error — the same effect skimming achieves, but bought
// with prior knowledge of the distribution instead of on-line extraction.
// The paper's criticism (Section 1) is that such statistics "may not
// always be available in a data-stream setting"; this package makes the
// comparison concrete by granting the baseline exact pre-computed
// frequency vectors, its best case.
//
// Partitioning heuristic: the values with the largest f_v²·g_v² products
// (the variance contributors) are isolated into singleton partitions,
// which need only a single counter each to be summarized exactly; the
// residue shares one AGMS sketch pair that receives all remaining space.
package partition

import (
	"fmt"
	"sort"

	"skimsketch/internal/agms"
	"skimsketch/internal/stream"
)

// Config sizes a partitioned estimator.
type Config struct {
	// Singletons is the number of heavy values isolated into their own
	// exact single-counter partitions.
	Singletons int
	// ResidueS1 and ResidueS2 are the AGMS dimensions of the shared
	// residue partition.
	ResidueS1, ResidueS2 int
	// Seed derives the residue sketches' ξ families.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Singletons < 0 {
		return fmt.Errorf("partition: Singletons must be non-negative, got %d", c.Singletons)
	}
	if c.ResidueS1 <= 0 || c.ResidueS2 <= 0 {
		return fmt.Errorf("partition: residue sketch dimensions must be positive, got %dx%d", c.ResidueS1, c.ResidueS2)
	}
	return nil
}

// Pair is a partitioned join estimator over two streams.
type Pair struct {
	domain uint64
	// singletonOf maps an isolated value to its counter index; all other
	// values go to the residue sketches.
	singletonOf map[uint64]int
	fCount      []int64 // exact counters for singleton partitions, F side
	gCount      []int64
	fRes, gRes  *agms.Sketch
}

// NewPair builds the partitioning from the a-priori statistics (the
// coarse frequency knowledge Dobra et al. assume) and allocates the
// sketches. statsF and statsG may be approximate; only their ranking
// matters for partition quality, while correctness is unconditional.
func NewPair(statsF, statsG stream.FreqVector, domain uint64, cfg Config) (*Pair, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if domain == 0 {
		return nil, fmt.Errorf("partition: domain must be positive")
	}

	type scored struct {
		v     uint64
		score float64
	}
	var candidates []scored
	for v, fw := range statsF {
		gw := statsG.Get(v)
		// Variance contribution ≈ f_v²·g_v² for joining values, f_v²·F2g
		// otherwise; rank by the self-join energy product with a floor so
		// heavy one-sided values still get isolated.
		s := float64(fw) * float64(fw) * (1 + float64(gw)*float64(gw))
		candidates = append(candidates, scored{v: v, score: s})
	}
	for v, gw := range statsG {
		if _, ok := statsF[v]; ok {
			continue
		}
		candidates = append(candidates, scored{v: v, score: float64(gw) * float64(gw)})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].score != candidates[j].score {
			return candidates[i].score > candidates[j].score
		}
		return candidates[i].v < candidates[j].v
	})

	n := cfg.Singletons
	if n > len(candidates) {
		n = len(candidates)
	}
	singletonOf := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		singletonOf[candidates[i].v] = i
	}
	fRes, err := agms.New(cfg.ResidueS1, cfg.ResidueS2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gRes, err := agms.New(cfg.ResidueS1, cfg.ResidueS2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Pair{
		domain:      domain,
		singletonOf: singletonOf,
		fCount:      make([]int64, n),
		gCount:      make([]int64, n),
		fRes:        fRes,
		gRes:        gRes,
	}, nil
}

// UpdateF folds one F-stream element.
func (p *Pair) UpdateF(value uint64, weight int64) {
	if i, ok := p.singletonOf[value]; ok {
		p.fCount[i] += weight
		return
	}
	p.fRes.Update(value, weight)
}

// UpdateG folds one G-stream element.
func (p *Pair) UpdateG(value uint64, weight int64) {
	if i, ok := p.singletonOf[value]; ok {
		p.gCount[i] += weight
		return
	}
	p.gRes.Update(value, weight)
}

// Estimate sums the exact singleton subjoins and the residue-sketch
// estimate.
func (p *Pair) Estimate() (int64, error) {
	var total int64
	for i := range p.fCount {
		total += p.fCount[i] * p.gCount[i]
	}
	res, err := agms.JoinEstimate(p.fRes, p.gRes)
	if err != nil {
		return 0, err
	}
	return total + res, nil
}
