package agms

import (
	"math"
	"slices"
	"testing"

	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, 1); err == nil {
		t.Fatal("expected error for s1=0")
	}
	if _, err := New(5, -1, 1); err == nil {
		t.Fatal("expected error for negative s2")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 0, 1)
}

func TestAccessors(t *testing.T) {
	s := MustNew(4, 3, 9)
	if s.Words() != 12 {
		t.Fatalf("Words = %d", s.Words())
	}
}

func TestPairSharesFamilies(t *testing.T) {
	a := MustNew(3, 3, 7)
	b := MustNew(3, 3, 7)
	if !a.Compatible(b) {
		t.Fatal("same config must be compatible")
	}
	// Same single update must produce identical counters.
	a.Update(42, 1)
	b.Update(42, 1)
	if !slices.Equal(a.counters, b.counters) {
		t.Fatal("paired sketches must evolve identically on identical input")
	}
	c := MustNew(3, 3, 8)
	if a.Compatible(c) {
		t.Fatal("different seeds must be incompatible")
	}
}

func TestUpdateDeleteCancels(t *testing.T) {
	s := MustNew(5, 5, 3)
	s.Update(10, 1)
	s.Update(11, 7)
	s.Update(10, -1)
	s.Update(11, -7)
	for _, c := range s.counters {
		if c != 0 {
			t.Fatal("deletes must exactly cancel inserts (linearity)")
		}
	}
}

func TestJoinEstimateIncompatible(t *testing.T) {
	a := MustNew(2, 2, 1)
	b := MustNew(2, 2, 2)
	if _, err := JoinEstimate(a, b); err == nil {
		t.Fatal("expected pairing error")
	}
}

func TestJoinExactForSingleSharedValue(t *testing.T) {
	a := MustNew(3, 3, 5)
	b := MustNew(3, 3, 5)
	for i := 0; i < 4; i++ {
		a.Update(7, 1)
	}
	for i := 0; i < 6; i++ {
		b.Update(7, 1)
	}
	got, err := JoinEstimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 24 {
		t.Fatalf("JoinEstimate = %d, want 24 (ξ(7)² = 1 makes this exact)", got)
	}
}

func TestJoinAccuracy(t *testing.T) {
	const m = 1 << 12
	gf, _ := workload.NewZipf(m, 1.0, 31)
	gg, _ := workload.NewZipf(m, 1.0, 32)
	fs := workload.MakeStream(gf, 40000)
	gs := workload.MakeStream(workload.NewShifted(gg, 5), 40000)

	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	fsk := MustNew(128, 7, 4242)
	gsk := MustNew(128, 7, 4242)
	stream.Apply(fs, fv, fsk)
	stream.Apply(gs, gv, gsk)

	exact := float64(fv.InnerProduct(gv))
	est, err := JoinEstimate(fsk, gsk)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.SymmetricError(float64(est), exact); e > 1.0 {
		t.Fatalf("join error %.3f too large (est %d vs exact %.0f)", e, est, exact)
	}
}

// TestJoinUnbiasedAcrossSeeds: the mean of many independent estimates
// should approach the exact join size much more closely than any single
// estimate's error bound.
func TestJoinUnbiasedAcrossSeeds(t *testing.T) {
	const m = 256
	gf, _ := workload.NewZipf(m, 1.0, 41)
	gg, _ := workload.NewZipf(m, 1.0, 42)
	fs := workload.MakeStream(gf, 5000)
	gs := workload.MakeStream(gg, 5000)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(fs, fv)
	stream.Apply(gs, gv)
	exact := float64(fv.InnerProduct(gv))

	var w stats.Welford
	for seed := uint64(0); seed < 40; seed++ {
		fsk := MustNew(32, 1, seed)
		gsk := MustNew(32, 1, seed)
		stream.Apply(fs, fsk)
		stream.Apply(gs, gsk)
		est, err := JoinEstimate(fsk, gsk)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(float64(est))
	}
	if math.Abs(w.Mean()-exact)/exact > 0.15 {
		t.Fatalf("mean estimate %.0f drifts from exact %.0f: estimator looks biased", w.Mean(), exact)
	}
}

func TestSketchLinearityProperty(t *testing.T) {
	// sketch(stream1 ++ stream2) == sketch(stream1) + sketch(stream2)
	s1 := MustNew(4, 3, 77)
	s2 := MustNew(4, 3, 77)
	both := MustNew(4, 3, 77)
	u1 := []stream.Update{{Value: 3, Weight: 2}, {Value: 9, Weight: -1}}
	u2 := []stream.Update{{Value: 3, Weight: -2}, {Value: 100, Weight: 5}}
	stream.Apply(u1, s1, both)
	stream.Apply(u2, s2, both)
	for i, c := range both.counters {
		if s1.counters[i]+s2.counters[i] != c {
			t.Fatal("linearity violated")
		}
	}
}
