package core

import (
	"math"
	"testing"

	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// Statistical conformance tests: beyond spot accuracy checks, these
// verify the two quantitative predictions of the analysis — the
// estimator is unbiased, and the bucket structure cuts the variance by a
// factor of b (Section 4.3's self-join-sizes-over-b error terms).

// joinTrial runs one single-table (d = 1, no median) bucket-product
// estimate so the raw estimator distribution is visible.
func joinTrial(fv, gv stream.FreqVector, b int, seed uint64) float64 {
	c := Config{Tables: 1, Buckets: b, Seed: seed}
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	for v, w := range fv {
		f.Update(v, w)
	}
	for v, w := range gv {
		g.Update(v, w)
	}
	return float64(sparseSparse(f, g))
}

// TestSparseSparseUnbiased: the mean of many independent single-table
// bucket-product estimates converges to the exact join size.
func TestSparseSparseUnbiased(t *testing.T) {
	const m, n = 512, 5000
	zf, _ := workload.NewZipf(m, 1.0, 3)
	zg, _ := workload.NewZipf(m, 1.0, 4)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(workload.MakeStream(zf, n), fv)
	stream.Apply(workload.MakeStream(zg, n), gv)
	exact := float64(fv.InnerProduct(gv))

	var w stats.Welford
	const trials = 120
	for seed := uint64(0); seed < trials; seed++ {
		w.Add(joinTrial(fv, gv, 16, seed))
	}
	// Standard error of the mean = sd/sqrt(trials); require the mean to
	// sit within ~4 standard errors of the exact value.
	sem := w.StdDev() / math.Sqrt(trials)
	if diff := math.Abs(w.Mean() - exact); diff > 4*sem+0.02*exact {
		t.Fatalf("mean estimate %.0f vs exact %.0f (|diff| %.0f > 4·SEM %.0f): bias suspected",
			w.Mean(), exact, diff, 4*sem)
	}
}

// TestVarianceShrinksWithBuckets: quadrupling b should cut the variance
// of the single-table estimator by roughly 4x (we accept ≥ 2x to stay
// robust at modest trial counts).
func TestVarianceShrinksWithBuckets(t *testing.T) {
	const m, n = 512, 5000
	zf, _ := workload.NewZipf(m, 1.1, 7)
	zg, _ := workload.NewZipf(m, 1.1, 8)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(workload.MakeStream(zf, n), fv)
	stream.Apply(workload.MakeStream(zg, n), gv)

	variance := func(b int) float64 {
		var w stats.Welford
		for seed := uint64(0); seed < 100; seed++ {
			w.Add(joinTrial(fv, gv, b, 1000+seed))
		}
		return w.Variance()
	}
	v8, v32 := variance(8), variance(32)
	if v8 <= 0 || v32 <= 0 {
		t.Skip("degenerate variance sample")
	}
	if ratio := v8 / v32; ratio < 2 {
		t.Fatalf("variance ratio 8→32 buckets = %.2f, want ≥ 2 (theory: ≈ 4)", ratio)
	}
}

// TestMedianBoostingTightensTails: d is the confidence knob — at the
// same per-table width b, the median over 7 tables must have a smaller
// worst-case error across seeds than a single table (the paper's
// probability boost from d = O(log 1/δ)). Note this intentionally does
// NOT hold space constant: at equal space, widening one table reduces
// variance as much as medianing does, and which wins is data-dependent;
// the theorem is about failure probability at fixed per-table variance.
func TestMedianBoostingTightensTails(t *testing.T) {
	const m, n = 512, 5000
	zf, _ := workload.NewZipf(m, 1.2, 11)
	zg, _ := workload.NewZipf(m, 1.2, 12)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(workload.MakeStream(zf, n), fv)
	stream.Apply(workload.MakeStream(zg, n), gv)
	exact := float64(fv.InnerProduct(gv))

	worst := func(d, b int) float64 {
		w := 0.0
		for seed := uint64(0); seed < 40; seed++ {
			c := Config{Tables: d, Buckets: b, Seed: 500 + seed}
			f := MustNewHashSketch(c)
			g := MustNewHashSketch(c)
			for v, wt := range fv {
				f.Update(v, wt)
			}
			for v, wt := range gv {
				g.Update(v, wt)
			}
			e := stats.SymmetricError(float64(sparseSparse(f, g)), exact)
			if e > w {
				w = e
			}
		}
		return w
	}
	// Same per-table width: 1×16 vs 7×16.
	w1, w7 := worst(1, 16), worst(7, 16)
	if w7 >= w1 {
		t.Fatalf("worst error with 7-table median (%.3f) should beat single table (%.3f)", w7, w1)
	}
}

// TestEstimateOnEmptySketches: everything degrades gracefully at zero.
func TestEstimateOnEmptySketches(t *testing.T) {
	c := cfg(3, 8, 1)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	est, err := EstimateJoin(f, g, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 0 || est.DenseCountF != 0 {
		t.Fatalf("empty join estimate %+v", est)
	}
	if f.PointEstimate(5) != 0 || f.SelfJoinEstimate() != 0 {
		t.Fatal("empty sketch estimates must be zero")
	}
}

// TestLargeWeightsNoOverflow: weights near the documented envelope (|w|
// up to ~2^31 per value, counters summing below 2^62) estimate exactly
// for single values.
func TestLargeWeightsNoOverflow(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	const big = int64(1) << 31
	s.Update(3, big)
	if got := s.PointEstimate(3); got != big {
		t.Fatalf("estimate %d, want %d", got, big)
	}
	g := MustNewHashSketch(cfg(3, 8, 1))
	g.Update(3, 1000)
	est, err := EstimateJoin(s, g, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != big*1000 {
		t.Fatalf("join %d, want %d", est.Total, big*1000)
	}
}
