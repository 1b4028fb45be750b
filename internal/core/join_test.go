package core

import (
	"testing"

	"skimsketch/internal/agms"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestEstimateJoinRejectsIncompatible(t *testing.T) {
	f := MustNewHashSketch(cfg(3, 8, 1))
	g := MustNewHashSketch(cfg(3, 8, 2))
	if _, err := EstimateJoin(f, g, 16, nil); err == nil {
		t.Fatal("expected pairing error")
	}
	if _, err := EstimateJoinSkimmed(f, g, nil, nil); err == nil {
		t.Fatal("expected pairing error")
	}
}

func TestEstimateJoinExactSingleValue(t *testing.T) {
	c := cfg(5, 32, 7)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	for i := 0; i < 10; i++ {
		f.Update(3, 1)
	}
	for i := 0; i < 20; i++ {
		g.Update(3, 1)
	}
	est, err := EstimateJoin(f, g, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 200 {
		t.Fatalf("Total = %d, want 200", est.Total)
	}
	// Both frequencies exceed their thresholds, so the whole join must be
	// classified dense×dense and computed exactly.
	if est.DenseDense != 200 || est.DenseSparse != 0 || est.SparseDense != 0 || est.SparseSparse != 0 {
		t.Fatalf("decomposition %+v, want pure dense×dense", est)
	}
	if est.DenseCountF != 1 || est.DenseCountG != 1 {
		t.Fatalf("dense counts %d/%d, want 1/1", est.DenseCountF, est.DenseCountG)
	}
}

func TestEstimateJoinDoesNotMutateSketches(t *testing.T) {
	c := cfg(5, 64, 9)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	zf, _ := workload.NewZipf(256, 1.2, 3)
	zg, _ := workload.NewZipf(256, 1.2, 4)
	stream.Apply(workload.MakeStream(zf, 3000), f)
	stream.Apply(workload.MakeStream(zg, 3000), g)
	fc, gc := f.Clone(), g.Clone()
	if _, err := EstimateJoin(f, g, 256, nil); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		for k := 0; k < 64; k++ {
			if f.counters[j*f.cfg.Buckets+k] != fc.counters[j*fc.cfg.Buckets+k] || g.counters[j*g.cfg.Buckets+k] != gc.counters[j*gc.cfg.Buckets+k] {
				t.Fatal("EstimateJoin must not mutate the synopses")
			}
		}
	}
}

func TestEstimateTotalsEqualComponentSum(t *testing.T) {
	c := cfg(7, 128, 5)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	zf, _ := workload.NewZipf(1024, 1.3, 5)
	zg, _ := workload.NewZipf(1024, 1.3, 6)
	stream.Apply(workload.MakeStream(zf, 10000), f)
	stream.Apply(workload.MakeStream(zg, 10000), g)
	est, err := EstimateJoin(f, g, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != est.DenseDense+est.DenseSparse+est.SparseDense+est.SparseSparse {
		t.Fatalf("Total %d must equal component sum in %+v", est.Total, est)
	}
}

// TestPaperExample1 mirrors the worked example of Section 3: two streams
// each dominated by a couple of huge frequencies plus light mass. After
// skimming, the dense×dense part carries almost the whole join and is
// exact, so the estimate must be far more accurate than the no-skim
// bucket product at the same (tiny) space.
func TestPaperExample1(t *testing.T) {
	const domain = 1 << 12
	c := cfg(5, 64, 31)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()

	apply := func(sk *HashSketch, v stream.FreqVector, val uint64, w int64) {
		sk.Update(val, w)
		v.Update(val, w)
	}
	// Heavy shared values dominate the join.
	apply(f, fv, 10, 20000)
	apply(g, gv, 10, 15000)
	apply(f, fv, 999, 12000)
	apply(g, gv, 999, 9000)
	// Light disjoint mass.
	uf := workload.NewUniform(domain, 1)
	ug := workload.NewUniform(domain, 2)
	for i := 0; i < 3000; i++ {
		apply(f, fv, uf.Next(), 1)
		apply(g, gv, ug.Next(), 1)
	}

	exact := float64(fv.InnerProduct(gv))
	skim, err := EstimateJoin(f, g, domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	noskim, err := EstimateJoin(f, g, domain, &Options{NoSkim: true})
	if err != nil {
		t.Fatal(err)
	}
	eSkim := stats.SymmetricError(float64(skim.Total), exact)
	eRaw := stats.SymmetricError(float64(noskim.Total), exact)
	if eSkim > 0.1 {
		t.Fatalf("skimmed error %.4f too large (est %d vs exact %.0f)", eSkim, skim.Total, exact)
	}
	if eSkim >= eRaw {
		t.Fatalf("skimming must win on the paper's example: skim %.4f vs raw %.4f", eSkim, eRaw)
	}
	if skim.DenseCountF < 2 || skim.DenseCountG < 2 {
		t.Fatalf("both heavy values should be extracted: %d/%d", skim.DenseCountF, skim.DenseCountG)
	}
}

func TestNoSkimOptionIsPlainBucketProduct(t *testing.T) {
	c := cfg(5, 64, 11)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	f.Update(1, 10)
	g.Update(1, 5)
	est, err := EstimateJoin(f, g, 16, &Options{NoSkim: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 50 {
		t.Fatalf("Total = %d, want 50 (single value, exact)", est.Total)
	}
	if est.DenseCountF != 0 || est.ThresholdF != 0 {
		t.Fatalf("no-skim estimate must not report skim state: %+v", est)
	}
}

func TestExplicitThresholdsHonored(t *testing.T) {
	c := cfg(5, 64, 13)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	f.Update(1, 100)
	g.Update(1, 100)
	est, err := EstimateJoin(f, g, 16, &Options{ThresholdF: 7, ThresholdG: 9})
	if err != nil {
		t.Fatal(err)
	}
	if est.ThresholdF != 7 || est.ThresholdG != 9 {
		t.Fatalf("thresholds %d/%d not honored", est.ThresholdF, est.ThresholdG)
	}
}

// TestSkimmedBeatsBasicAGMSOnSkew is the headline claim at unit-test
// scale: at equal space, on a skewed join, the skimmed-sketch estimate is
// more accurate than basic AGMS sketching. Averaged over several seeds to
// keep the test stable.
func TestSkimmedBeatsBasicAGMSOnSkew(t *testing.T) {
	const m, n = 1 << 12, 60000
	const words = 640 // hash sketch: 5×128; AGMS: 128×5
	zf, _ := workload.NewZipf(m, 1.2, 101)
	zg, _ := workload.NewZipf(m, 1.2, 102)
	fs := workload.MakeStream(zf, n)
	gs := workload.MakeStream(workload.NewShifted(zg, 20), n)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(fs, fv)
	stream.Apply(gs, gv)
	exact := float64(fv.InnerProduct(gv))

	var skimErr, agmsErr float64
	const seeds = 5
	for seed := uint64(0); seed < seeds; seed++ {
		c := cfg(5, words/5, 1000+seed)
		hf := MustNewHashSketch(c)
		hg := MustNewHashSketch(c)
		af := agms.MustNew(words/5, 5, 2000+seed)
		ag := agms.MustNew(words/5, 5, 2000+seed)
		stream.Apply(fs, hf, af)
		stream.Apply(gs, hg, ag)

		est, err := EstimateJoin(hf, hg, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		skimErr += stats.SymmetricError(float64(est.Total), exact)
		a, err := agms.JoinEstimate(af, ag)
		if err != nil {
			t.Fatal(err)
		}
		agmsErr += stats.SymmetricError(float64(a), exact)
	}
	skimErr /= seeds
	agmsErr /= seeds
	t.Logf("mean symmetric error: skimmed %.4f, basic AGMS %.4f (exact J = %.0f)", skimErr, agmsErr, exact)
	if skimErr >= agmsErr {
		t.Fatalf("skimmed (%.4f) must beat basic AGMS (%.4f) on skewed data", skimErr, agmsErr)
	}
	if skimErr > 0.25 {
		t.Fatalf("skimmed error %.4f too large in absolute terms", skimErr)
	}
}

// TestJoinWithDeletesMatchesNetStream: estimates over a stream with
// insert/delete noise must match estimates over the equivalent net
// stream exactly (sketch linearity), the paper's "general updates"
// property.
func TestJoinWithDeletesMatchesNetStream(t *testing.T) {
	const m = 1 << 10
	zf, _ := workload.NewZipf(m, 1.0, 51)
	zg, _ := workload.NewZipf(m, 1.0, 52)
	fs := workload.MakeStream(zf, 8000)
	gs := workload.MakeStream(zg, 8000)
	fsNoisy := workload.WithDeletes(fs, 0.4, 1)
	gsNoisy := workload.WithDeletes(gs, 0.4, 2)

	c := cfg(5, 128, 77)
	f1 := MustNewHashSketch(c)
	g1 := MustNewHashSketch(c)
	f2 := MustNewHashSketch(c)
	g2 := MustNewHashSketch(c)
	stream.Apply(fs, f1)
	stream.Apply(gs, g1)
	stream.Apply(fsNoisy, f2)
	stream.Apply(gsNoisy, g2)

	e1, err := EstimateJoin(f1, g1, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := EstimateJoin(f2, g2, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Total != e2.Total {
		t.Fatalf("delete noise changed the estimate: %d vs %d", e1.Total, e2.Total)
	}
}

// TestSubJoinEmptyDense: an empty dense vector contributes exactly zero.
func TestSubJoinEmptyDense(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	s.Update(1, 5)
	if got := subJoin(stream.NewFreqVector(), s); got != 0 {
		t.Fatalf("subJoin(empty) = %d", got)
	}
}

// TestEstimateJoinSkimmedComposes: manually skimming then calling
// EstimateJoinSkimmed equals EstimateJoin with the same thresholds.
func TestEstimateJoinSkimmedComposes(t *testing.T) {
	const m = 1 << 10
	c := cfg(5, 128, 99)
	f := MustNewHashSketch(c)
	g := MustNewHashSketch(c)
	zf, _ := workload.NewZipf(m, 1.4, 61)
	zg, _ := workload.NewZipf(m, 1.4, 62)
	stream.Apply(workload.MakeStream(zf, 20000), f)
	stream.Apply(workload.MakeStream(zg, 20000), g)

	tf, tg := f.DefaultSkimThreshold(), g.DefaultSkimThreshold()
	want, err := EstimateJoin(f, g, m, &Options{ThresholdF: tf, ThresholdG: tg})
	if err != nil {
		t.Fatal(err)
	}

	fs, gs := f.Clone(), g.Clone()
	fd, err := fs.SkimDense(m, tf)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := gs.SkimDense(m, tg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateJoinSkimmed(fs, gs, fd, gd)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total || got.DenseDense != want.DenseDense {
		t.Fatalf("composed estimate %+v differs from direct %+v", got, want)
	}
}
