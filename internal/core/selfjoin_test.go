package core

import (
	"testing"

	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestEstimateSelfJoinExactSingleValue(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 64, 3))
	s.Update(9, 12)
	d, err := s.EstimateSelfJoin(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 144 {
		t.Fatalf("Total = %d, want 144", d.Total)
	}
	if d.DenseDense != 144 || d.DenseSparse != 0 || d.SparseSparse != 0 {
		t.Fatalf("decomposition %+v, want pure dense", d)
	}
	if d.DenseCount != 1 {
		t.Fatalf("DenseCount = %d", d.DenseCount)
	}
}

func TestEstimateSelfJoinNoSkim(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 64, 3))
	s.Update(9, 12)
	d, err := s.EstimateSelfJoin(32, &SelfJoinEstimateOpts{NoSkim: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 144 || d.DenseCount != 0 {
		t.Fatalf("NoSkim decomposition %+v", d)
	}
}

func TestEstimateSelfJoinDoesNotMutate(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 64, 7))
	z, _ := workload.NewZipf(256, 1.3, 3)
	stream.Apply(workload.MakeStream(z, 5000), s)
	before := s.Clone()
	if _, err := s.EstimateSelfJoin(256, nil); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		for k := 0; k < 64; k++ {
			if s.counters[j*s.cfg.Buckets+k] != before.counters[j*before.cfg.Buckets+k] {
				t.Fatal("EstimateSelfJoin must not mutate the sketch")
			}
		}
	}
}

// TestSkimmedSelfJoinBeatsRawOnSkew: on a heavily skewed stream with a
// small sketch, the skimmed F2 estimate must be more accurate than the
// raw bucket-square estimate on average.
func TestSkimmedSelfJoinBeatsRawOnSkew(t *testing.T) {
	const m, n = 1 << 12, 50000
	z, _ := workload.NewZipf(m, 1.5, 17)
	updates := workload.MakeStream(z, n)
	f := stream.NewFreqVector()
	stream.Apply(updates, f)
	exact := float64(f.SelfJoinSize())

	var skimErr, rawErr float64
	const seeds = 5
	for seed := uint64(0); seed < seeds; seed++ {
		s := MustNewHashSketch(cfg(5, 64, 100+seed))
		stream.Apply(updates, s)
		d, err := s.EstimateSelfJoin(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		skimErr += stats.SymmetricError(float64(d.Total), exact)
		rawErr += stats.SymmetricError(float64(s.SelfJoinEstimate()), exact)
	}
	skimErr /= seeds
	rawErr /= seeds
	t.Logf("skimmed F2 err %.4f vs raw %.4f", skimErr, rawErr)
	if skimErr >= rawErr {
		t.Fatalf("skimmed F2 (%.4f) must beat raw (%.4f) at high skew", skimErr, rawErr)
	}
	if skimErr > 0.2 {
		t.Fatalf("skimmed F2 error %.4f too large", skimErr)
	}
}

func TestEstimateSelfJoinBadThreshold(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	s.Update(1, 5)
	// Explicit negative threshold resolves to the default rather than
	// erroring (0 and negatives mean "auto").
	if _, err := s.EstimateSelfJoin(16, &SelfJoinEstimateOpts{Threshold: -1}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorBound(t *testing.T) {
	c := cfg(5, 1024, 1)
	if got := c.ErrorBound(1000, 2000); got != 1000.0*2000.0/1024.0 {
		t.Fatalf("ErrorBound = %v", got)
	}
	if got := c.ErrorBound(-1000, 2000); got != 1000.0*2000.0/1024.0 {
		t.Fatalf("ErrorBound must use magnitudes, got %v", got)
	}
}
