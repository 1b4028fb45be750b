package dyadic

import (
	"bytes"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func cfg(d, b int, seed uint64) core.Config { return core.Config{Tables: d, Buckets: b, Seed: seed} }

// counterBytes is a sketch's counters as encoded: an SKHS blob is a
// 40-byte header (magic, version, tables, buckets, seed, net and gross
// counts) followed by the counters.
func counterBytes(s *core.HashSketch) []byte {
	b, _ := s.MarshalBinary()
	return b[40:]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for negative bits")
	}
	if _, err := New(63, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for bits > 62")
	}
	if _, err := New(4, cfg(0, 8, 1)); err == nil {
		t.Fatal("expected error for bad sketch config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(-1, cfg(1, 1, 1))
}

func TestStructure(t *testing.T) {
	h := MustNew(10, cfg(5, 64, 7))
	if h.bits != 10 || len(h.levels) != 11 {
		t.Fatalf("bits=%d levels=%d", h.bits, len(h.levels))
	}
	if h.Base() != h.levels[0] {
		t.Fatal("Base must be level 0")
	}
}

// TestLevelAggregation: the level-ℓ sketch must summarize interval
// frequencies, so a single value's point estimate at every level equals
// its frequency.
func TestLevelAggregation(t *testing.T) {
	h := MustNew(8, cfg(5, 32, 3))
	h.Update(200, 17)
	for l := 0; l <= 8; l++ {
		if got := h.levels[l].PointEstimate(200 >> uint(l)); got != 17 {
			t.Fatalf("level %d estimate = %d, want 17", l, got)
		}
	}
}

// TestSiblingsAggregate: two children of one interval sum at the parent.
func TestSiblingsAggregate(t *testing.T) {
	h := MustNew(4, cfg(5, 32, 9))
	h.Update(6, 10) // interval 3 at level 1
	h.Update(7, 5)  // same parent interval
	if got := h.levels[1].PointEstimate(3); got != 15 {
		t.Fatalf("parent estimate = %d, want 15", got)
	}
}

// TestSkimMatchesNaive: the dyadic descent must extract exactly the same
// dense vector as the reference full-domain scan, because the base
// sketches share state and the candidates cover all dense values.
func TestSkimMatchesNaive(t *testing.T) {
	const bits = 12
	const domain = 1 << bits
	h := MustNew(bits, cfg(7, 256, 41))
	zf, _ := workload.NewZipf(domain, 1.2, 7)
	for _, u := range workload.MakeStream(zf, 30000) {
		h.Update(u.Value, u.Weight)
	}
	threshold := h.DefaultSkimThreshold()
	naiveSketch := h.Base().Clone()

	denseDyadic, err := h.Skim(threshold)
	if err != nil {
		t.Fatal(err)
	}
	denseNaive, err := naiveSketch.SkimDense(domain, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(denseDyadic) != len(denseNaive) {
		t.Fatalf("dense sets differ in size: dyadic %d vs naive %d", len(denseDyadic), len(denseNaive))
	}
	for v, w := range denseNaive {
		if denseDyadic[v] != w {
			t.Fatalf("dense sets differ at %d: %d vs %d", v, denseDyadic[v], w)
		}
	}
	// And the skimmed base sketches must agree counter by counter.
	if !bytes.Equal(counterBytes(h.Base()), counterBytes(naiveSketch)) {
		t.Fatal("skimmed base sketches diverge")
	}
}

// TestSkimKeepsLevelsConsistent: after skimming, every level must
// reflect the residual stream: the estimate of the dense value's interval
// drops by (roughly) the extracted amount. (Higher levels legitimately
// retain the light mass that shares the interval.)
func TestSkimKeepsLevelsConsistent(t *testing.T) {
	h := MustNew(10, cfg(5, 128, 5))
	h.Update(777, 5000)
	g := workload.NewUniform(1024, 3)
	for i := 0; i < 2000; i++ {
		h.Update(g.Next(), 1)
	}
	before := make([]int64, 11)
	for l := 0; l <= 10; l++ {
		before[l] = h.levels[l].PointEstimate(777 >> uint(l))
	}
	dense, err := h.Skim(1000)
	if err != nil {
		t.Fatal(err)
	}
	extracted, ok := dense[777]
	if !ok {
		t.Fatal("777 must be extracted")
	}
	for l := 0; l <= 10; l++ {
		after := h.levels[l].PointEstimate(777 >> uint(l))
		drop := before[l] - after
		if diff := drop - extracted; diff > 600 || diff < -600 {
			t.Fatalf("level %d estimate dropped by %d, want ≈ extracted %d", l, drop, extracted)
		}
	}
}

func TestCandidateValuesPrunesLightDomain(t *testing.T) {
	h := MustNew(12, cfg(5, 128, 11))
	h.Update(99, 10000)
	g := workload.NewUniform(4096, 1)
	for i := 0; i < 2000; i++ {
		h.Update(g.Next(), 1)
	}
	cands := h.candidateValues(2000)
	if len(cands) == 0 || len(cands) > 64 {
		t.Fatalf("candidate set size %d; expected a small pruned set", len(cands))
	}
	found := false
	for _, v := range cands {
		if v == 99 {
			found = true
		}
	}
	if !found {
		t.Fatal("dense value 99 must survive the descent")
	}
}

func TestSkimDefaultThreshold(t *testing.T) {
	h := MustNew(6, cfg(3, 16, 1))
	h.Update(1, 100)
	if _, err := h.Skim(0); err != nil {
		t.Fatalf("Skim with default threshold failed: %v", err)
	}
}

// TestEstimateJoinDyadic: join estimation from dyadic skims (the dense
// vectors plus the skimmed base sketches) must be accurate on skewed
// data.
func TestEstimateJoinDyadic(t *testing.T) {
	const bits = 12
	const domain = 1 << bits
	const n = 40000
	c := cfg(5, 256, 2024)
	fh := MustNew(bits, c)
	gh := MustNew(bits, c)
	zf, _ := workload.NewZipf(domain, 1.3, 71)
	zg, _ := workload.NewZipf(domain, 1.3, 72)
	fs := workload.MakeStream(zf, n)
	gs := workload.MakeStream(workload.NewShifted(zg, 10), n)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	for _, u := range fs {
		fh.Update(u.Value, u.Weight)
		fv.Update(u.Value, u.Weight)
	}
	for _, u := range gs {
		gh.Update(u.Value, u.Weight)
		gv.Update(u.Value, u.Weight)
	}
	exact := float64(fv.InnerProduct(gv))
	fd, err := fh.Skim(0)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := gh.Skim(0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateJoinSkimmed(fh.Base(), gh.Base(), fd, gd)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.SymmetricError(float64(est.Total), exact); e > 0.25 {
		t.Fatalf("dyadic join error %.4f too large (est %d vs exact %.0f)", e, est.Total, exact)
	}
}

// TestDyadicDeleteInvariance: insert/delete noise must not change the
// hierarchy state.
func TestDyadicDeleteInvariance(t *testing.T) {
	c := cfg(3, 32, 5)
	a := MustNew(6, c)
	b := MustNew(6, c)
	base := []stream.Update{{Value: 3, Weight: 2}, {Value: 60, Weight: 4}}
	noisy := workload.WithDeletes(base, 0.9, 3)
	for _, u := range base {
		a.Update(u.Value, u.Weight)
	}
	for _, u := range noisy {
		b.Update(u.Value, u.Weight)
	}
	for l := 0; l <= 6; l++ {
		if !bytes.Equal(counterBytes(a.levels[l]), counterBytes(b.levels[l])) {
			t.Fatal("delete noise changed hierarchy counters")
		}
	}
}
