package window

import (
	"bytes"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func cfg(d, b int, seed uint64) core.Config { return core.Config{Tables: d, Buckets: b, Seed: seed} }

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 0, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for zero buckets")
	}
	if _, err := New(0, 4, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for zero window")
	}
	if _, err := New(10, 4, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for non-divisible window")
	}
	if _, err := New(100, 4, cfg(0, 8, 1)); err == nil {
		t.Fatal("expected error for bad sketch config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 0, cfg(1, 1, 1))
}

// covered is how many of the most recent elements the window
// summarizes.
func covered(w *Window) int64 { return int64(w.live)*w.bucketCap + w.curCount }

// coveredRange is the half-open update-index interval [from, to) the
// window summarizes, where indices count Update calls from 0.
func coveredRange(w *Window) (from, to int64) { return w.total - covered(w), w.total }

func TestCoverageAccounting(t *testing.T) {
	w := MustNew(100, 4, cfg(3, 16, 1)) // 25 elements per bucket
	if n := w.bucketCap * int64(len(w.buckets)); n != 100 || w.Words() != 4*3*16 {
		t.Fatalf("window length=%d Words=%d", n, w.Words())
	}
	for i := 0; i < 10; i++ {
		w.Update(uint64(i), 1)
	}
	if got := covered(w); got != 10 {
		t.Fatalf("covered = %d, want 10", got)
	}
	from, to := coveredRange(w)
	if from != 0 || to != 10 {
		t.Fatalf("covered range = [%d,%d)", from, to)
	}
	// Fill far beyond the window: coverage must stay within
	// [W − W/B, W) = [75, 100).
	for i := 0; i < 1000; i++ {
		w.Update(uint64(i), 1)
	}
	cov := covered(w)
	if cov < 75 || cov >= 100 {
		t.Fatalf("coverage %d outside [75, 100)", cov)
	}
	if w.total != 1010 {
		t.Fatalf("total = %d", w.total)
	}
	from, to = coveredRange(w)
	if to != 1010 || to-from != cov {
		t.Fatalf("covered range = [%d,%d) with coverage %d", from, to, cov)
	}
}

// TestExpiryForgetsOldValues: a heavy value seen only before the window
// must vanish from the combined sketch.
func TestExpiryForgetsOldValues(t *testing.T) {
	w := MustNew(400, 4, cfg(5, 64, 7))
	for i := 0; i < 300; i++ {
		w.Update(42, 1) // heavy, early
	}
	for i := 0; i < 1000; i++ {
		w.Update(uint64(i%64)+100, 1) // light churn, pushes 42 out
	}
	if got := w.Combined().PointEstimate(42); got > 30 || got < -30 {
		t.Fatalf("expired value still estimates %d", got)
	}
}

// TestCombinedMatchesSuffix: the combined sketch must equal a fresh
// sketch fed exactly the covered suffix of the stream.
func TestCombinedMatchesSuffix(t *testing.T) {
	c := cfg(5, 64, 9)
	w := MustNew(200, 4, c)
	g, _ := workload.NewZipf(256, 1.1, 3)
	updates := workload.MakeStream(g, 1234)
	for _, u := range updates {
		w.Update(u.Value, u.Weight)
	}
	from, to := coveredRange(w)
	ref := core.MustNewHashSketch(c)
	for _, u := range updates[from:to] {
		ref.Update(u.Value, u.Weight)
	}
	got, _ := w.Combined().MarshalBinary()
	want, _ := ref.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("combined sketch must equal sketching the covered suffix")
	}
}

// TestEstimateJoinIncompatible: windows with different seeds are no
// join pair, and their combined sketches are refused by the estimator;
// windows of different shapes are no pair either.
func TestEstimateJoinIncompatible(t *testing.T) {
	a := MustNew(100, 4, cfg(3, 8, 1))
	b := MustNew(100, 4, cfg(3, 8, 2))
	if a.Compatible(b) {
		t.Fatal("windows with different seeds must not be compatible")
	}
	if _, err := core.EstimateJoin(a.Combined(), b.Combined(), 16, nil); err == nil {
		t.Fatal("expected pairing error")
	}
	if c := MustNew(200, 4, cfg(3, 8, 1)); a.Compatible(c) {
		t.Fatal("windows of different shapes must not be compatible")
	}
}

// TestWindowedJoinAccuracy: the windowed estimate must track the exact
// join of the covered suffixes.
func TestWindowedJoinAccuracy(t *testing.T) {
	const m = 1 << 10
	c := cfg(7, 256, 21)
	fw := MustNew(20000, 4, c)
	gw := MustNew(20000, 4, c)
	zf, _ := workload.NewZipf(m, 1.2, 5)
	zg, _ := workload.NewZipf(m, 1.2, 6)
	fu := workload.MakeStream(zf, 50000)
	gu := workload.MakeStream(zg, 50000)
	for _, u := range fu {
		fw.Update(u.Value, u.Weight)
	}
	for _, u := range gu {
		gw.Update(u.Value, u.Weight)
	}
	ff, ft := coveredRange(fw)
	gf, gt := coveredRange(gw)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(fu[ff:ft], fv)
	stream.Apply(gu[gf:gt], gv)
	exact := float64(fv.InnerProduct(gv))

	est, err := core.EstimateJoin(fw.Combined(), gw.Combined(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.SymmetricError(float64(est.Total), exact); e > 0.3 {
		t.Fatalf("windowed join error %.4f (est %d vs exact %.0f)", e, est.Total, exact)
	}
}

// TestDeletesInsideWindow: a delete inside the window cancels its insert.
func TestDeletesInsideWindow(t *testing.T) {
	w := MustNew(100, 4, cfg(5, 32, 3))
	w.Update(7, 1)
	w.Update(7, -1)
	if got := w.Combined().PointEstimate(7); got != 0 {
		t.Fatalf("estimate = %d, want 0", got)
	}
}
