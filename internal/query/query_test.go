package query

import (
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func cfg(d, b int, seed uint64) core.Config { return core.Config{Tables: d, Buckets: b, Seed: seed} }

func TestNewSumEstimatorValidation(t *testing.T) {
	if _, err := NewSumEstimator(0, cfg(3, 8, 1)); err == nil {
		t.Fatal("expected error for zero domain")
	}
	if _, err := NewSumEstimator(16, cfg(0, 8, 1)); err == nil {
		t.Fatal("expected error for bad config")
	}
}

func TestSumExactTiny(t *testing.T) {
	s, err := NewSumEstimator(64, cfg(5, 32, 3))
	if err != nil {
		t.Fatal(err)
	}
	// F: value 5 appears 3 times. G: value 5 carries measures 10 and 7.
	for i := 0; i < 3; i++ {
		s.UpdateFact(5)
	}
	s.UpdateMeasure(5, 10)
	s.UpdateMeasure(5, 7)
	s.UpdateMeasure(9, 100) // non-joining value
	// Exact SUM = 3 × (10 + 7) = 51.
	est, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 51 {
		t.Fatalf("SUM estimate = %d, want 51", est.Total)
	}
}

func TestSumMeasureDeletion(t *testing.T) {
	s, _ := NewSumEstimator(64, cfg(5, 32, 3))
	s.UpdateFact(5)
	s.UpdateMeasure(5, 10)
	s.UpdateMeasure(5, -10) // retract
	est, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 0 {
		t.Fatalf("SUM after retraction = %d, want 0", est.Total)
	}
}

func TestSumAccuracySkewed(t *testing.T) {
	const m, n = 1 << 10, 20000
	s, _ := NewSumEstimator(m, cfg(7, 256, 17))
	zf, _ := workload.NewZipf(m, 1.2, 3)
	zg, _ := workload.NewZipf(m, 1.2, 4)
	var facts, measures []stream.Update
	for i := 0; i < n; i++ {
		v := zf.Next()
		facts = append(facts, stream.Insert(v))
		s.UpdateFact(v)
	}
	mg := workload.NewUniform(20, 7)
	for i := 0; i < n; i++ {
		v := zg.Next()
		measure := int64(mg.Next()) + 1
		measures = append(measures, stream.Update{Value: v, Weight: measure})
		s.UpdateMeasure(v, measure)
	}
	exact := ExactSum(facts, measures)
	est, err := s.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.SymmetricError(float64(est.Total), float64(exact)); e > 0.3 {
		t.Fatalf("SUM error %.4f too large (est %d vs exact %d)", e, est.Total, exact)
	}
}

func TestFilteredSink(t *testing.T) {
	fv := stream.NewFreqVector()
	sink := Filtered{Sink: fv, Pred: func(v uint64, w int64) bool { return v%2 == 0 }}
	stream.Apply([]stream.Update{stream.Insert(2), stream.Insert(3), stream.Insert(4)}, sink)
	if fv.Get(2) != 1 || fv.Get(4) != 1 || fv.Get(3) != 0 {
		t.Fatalf("predicate not applied: %v", fv)
	}
}
