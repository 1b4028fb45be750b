package sampling

import (
	"testing"

	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestNewReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(0, 1); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestReservoirFillsThenSamples(t *testing.T) {
	r, err := NewReservoir(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		r.Update(i, 1)
	}
	if r.Size() != 5 || r.n != 5 {
		t.Fatalf("Size=%d Seen=%d", r.Size(), r.n)
	}
	for i := uint64(0); i < 1000; i++ {
		r.Update(i, 1)
	}
	if r.Size() != 10 {
		t.Fatalf("Size=%d, want 10", r.Size())
	}
	if r.n != 1005 {
		t.Fatalf("Seen=%d", r.n)
	}
}

func TestWeightedUpdateExpands(t *testing.T) {
	r, _ := NewReservoir(100, 1)
	r.Update(7, 5)
	if r.n != 5 || r.Size() != 5 {
		t.Fatalf("weighted insert must expand: seen=%d size=%d", r.n, r.Size())
	}
}

func TestReservoirUniformity(t *testing.T) {
	const k, n, trials = 10, 100, 2000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r, _ := NewReservoir(k, int64(trial))
		for i := uint64(0); i < n; i++ {
			r.Update(i, 1)
		}
		for _, v := range r.sample {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for v, c := range counts {
		if float64(c) < want*0.6 || float64(c) > want*1.4 {
			t.Fatalf("position %d retained %d times, want ≈ %.0f", v, c, want)
		}
	}
}

func TestDeletesPoisonEstimates(t *testing.T) {
	f, _ := NewReservoir(10, 1)
	g, _ := NewReservoir(10, 2)
	f.Update(1, 1)
	f.Update(1, -1)
	g.Update(1, 1)
	if _, err := JoinEstimate(f, g); err != ErrDeletesUnsupported {
		t.Fatalf("err = %v, want ErrDeletesUnsupported", err)
	}
}

func TestJoinEstimateEmpty(t *testing.T) {
	f, _ := NewReservoir(10, 1)
	g, _ := NewReservoir(10, 2)
	est, err := JoinEstimate(f, g)
	if err != nil || est != 0 {
		t.Fatalf("est=%d err=%v", est, err)
	}
}

// TestJoinEstimateFullSample: when the reservoir holds the whole stream
// the estimator must be exact.
func TestJoinEstimateFullSample(t *testing.T) {
	f, _ := NewReservoir(1000, 1)
	g, _ := NewReservoir(1000, 2)
	fs := []stream.Update{stream.Insert(1), stream.Insert(1), stream.Insert(2)}
	gs := []stream.Update{stream.Insert(1), stream.Insert(2), stream.Insert(2)}
	stream.Apply(fs, f)
	stream.Apply(gs, g)
	est, err := JoinEstimate(f, g)
	if err != nil {
		t.Fatal(err)
	}
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(fs, fv)
	stream.Apply(gs, gv)
	if want := fv.InnerProduct(gv); est != want {
		t.Fatalf("est=%d want=%d", est, want)
	}
}

// TestSamplingAccuracyBallpark: with a large sample on a skewed join the
// estimate should land within an order of magnitude; the experiments show
// it loses badly to sketches at equal space, not that it is useless.
func TestSamplingAccuracyBallpark(t *testing.T) {
	const m, n = 1 << 10, 50000
	gf, _ := workload.NewZipf(m, 1.0, 51)
	gg, _ := workload.NewZipf(m, 1.0, 52)
	fs := workload.MakeStream(gf, n)
	gs := workload.MakeStream(gg, n)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	f, _ := NewReservoir(4000, 1)
	g, _ := NewReservoir(4000, 2)
	stream.Apply(fs, fv, f)
	stream.Apply(gs, gv, g)
	exact := float64(fv.InnerProduct(gv))
	est, err := JoinEstimate(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.SymmetricError(float64(est), exact); e > 3 {
		t.Fatalf("sampling error %.2f beyond ballpark (est %d vs exact %.0f)", e, est, exact)
	}
}
