package core

import (
	"fmt"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
)

// Estimate is the decomposed result of ESTSKIMJOINSIZE. Total is the join
// size estimate Ĵ = Ĵ_dd + Ĵ_ds + Ĵ_sd + Ĵ_ss; the components and the
// skim parameters are exposed for diagnostics, experiments and tests.
type Estimate struct {
	Total int64

	// DenseDense is Ĵ_dd, computed exactly from the two extracted dense
	// vectors (Step 2a of Section 3).
	DenseDense int64
	// DenseSparse is Ĵ_ds: F's dense frequencies against G's skimmed
	// sketch.
	DenseSparse int64
	// SparseDense is Ĵ_sd: G's dense frequencies against F's skimmed
	// sketch.
	SparseDense int64
	// SparseSparse is Ĵ_ss: the per-bucket inner product of the two
	// skimmed sketches.
	SparseSparse int64

	// ThresholdF and ThresholdG are the skim thresholds used.
	ThresholdF, ThresholdG int64
	// DenseCountF and DenseCountG are the number of dense values
	// extracted from each stream.
	DenseCountF, DenseCountG int
}

// Options tunes EstimateJoin.
type Options struct {
	// ThresholdF and ThresholdG override the skim thresholds; zero means
	// the sketch's DefaultSkimThreshold.
	ThresholdF, ThresholdG int64
	// NoSkim disables skimming entirely, reducing the estimator to the
	// plain per-bucket inner product of the raw hash sketches. This is
	// the ablation baseline showing what skimming buys.
	NoSkim bool
	// Workers parallelizes the skim's domain scan: > 1 uses that many
	// goroutines, 0 or 1 runs sequentially, < 0 uses one goroutine per
	// CPU. The subjoins that follow read a few dense values and d·b
	// counters and run sequentially. The result is bit-for-bit
	// identical for every setting — point estimates are independent
	// reads and counter subtraction commutes — so Workers trades
	// nothing but wall-clock time.
	Workers int
}

// EstimateJoin implements procedure ESTSKIMJOINSIZE (Figure 4),
// estimating COUNT(F ⋈ G) over the value domain [0, domain) from the two
// hash sketches. The sketches must be compatible (same Config). They are
// not mutated: skimming operates on clones.
func EstimateJoin(f, g *HashSketch, domain uint64, opts *Options) (Estimate, error) {
	if !f.Compatible(g) {
		return Estimate{}, fmt.Errorf("core: sketches are not a pair (configs %+v vs %+v)", f.cfg, g.cfg)
	}
	if opts == nil {
		opts = &Options{}
	}
	if opts.NoSkim {
		ss := sparseSparse(f, g)
		return Estimate{Total: ss, SparseSparse: ss}, nil
	}

	tf := opts.ThresholdF
	if tf <= 0 {
		tf = f.DefaultSkimThreshold()
	}
	tg := opts.ThresholdG
	if tg <= 0 {
		tg = g.DefaultSkimThreshold()
	}

	// F and G share every hash function, so one joint scan skims both.
	fs, gs := f.Clone(), g.Clone()
	dense, err := skim([]*HashSketch{fs, gs}, []int64{tf, tg}, domain, opts.Workers)
	if err != nil {
		return Estimate{}, err
	}
	return estimateFromSkimmed(fs, gs, dense[0], dense[1], tf, tg), nil
}

// EstimateJoinSkimmed is the core of ESTSKIMJOINSIZE for callers that
// have already skimmed (for example via the dyadic fast skimmer): it
// combines the four subjoin estimates from the skimmed sketches and dense
// vectors. The skimmed sketches are not mutated.
func EstimateJoinSkimmed(fSkimmed, gSkimmed *HashSketch, fDense, gDense stream.FreqVector) (Estimate, error) {
	if !fSkimmed.Compatible(gSkimmed) {
		return Estimate{}, fmt.Errorf("core: sketches are not a pair (configs %+v vs %+v)", fSkimmed.cfg, gSkimmed.cfg)
	}
	return estimateFromSkimmed(fSkimmed, gSkimmed, fDense, gDense, 0, 0), nil
}

func estimateFromSkimmed(fs, gs *HashSketch, fd, gd stream.FreqVector, tf, tg int64) Estimate {
	e := Estimate{
		ThresholdF:  tf,
		ThresholdG:  tg,
		DenseCountF: len(fd),
		DenseCountG: len(gd),
	}
	e.DenseDense = fd.InnerProduct(gd)
	e.DenseSparse = subJoin(fd, gs)
	e.SparseDense = subJoin(gd, fs)
	e.SparseSparse = sparseSparse(fs, gs)
	e.Total = e.DenseDense + e.DenseSparse + e.SparseDense + e.SparseSparse
	return e
}

// subJoin implements procedure ESTSUBJOINSIZE (Figure 4): the estimate
// of Σ_v dense_v · sparse_v as, per table j,
// Σ_{v ∈ dense} dense_v·C[j][h_j(v)]·ξ_j(v), boosted by the median over
// tables.
func subJoin(dense stream.FreqVector, sk *HashSketch) int64 {
	if len(dense) == 0 {
		return 0
	}
	d, b := sk.cfg.Tables, sk.cfg.Buckets
	rows := make([]int64, d)
	for v, w := range dense {
		p := hashfam.PowersOf(v)
		for j := range rows {
			k, sign := sk.rows[j].At(p, uint64(b))
			rows[j] += w * sk.counters[j*b+k] * sign
		}
	}
	return stats.MedianInt64(rows)
}

// sparseSparse estimates Σ_v f'_v·g'_v as, per table j, the bucket-wise
// inner product Σ_k F[j][k]·G[j][k] (Steps 3–7 of ESTSKIMJOINSIZE; the
// two sketches share h_j, so identical values meet in identical
// buckets), likewise median-boosted.
func sparseSparse(f, g *HashSketch) int64 {
	d, b := f.cfg.Tables, f.cfg.Buckets
	rows := make([]int64, d)
	for j := range rows {
		fr, gr := f.counters[j*b:(j+1)*b], g.counters[j*b:(j+1)*b]
		for k := range fr {
			rows[j] += fr[k] * gr[k]
		}
	}
	return stats.MedianInt64(rows)
}
