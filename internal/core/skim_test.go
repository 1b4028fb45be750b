package core

import (
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// buildSkewed returns a sketch plus exact frequencies for a stream with a
// handful of planted heavy values over a mostly-light domain.
func buildSkewed(t *testing.T, c Config, domain uint64, heavy map[uint64]int64, lightN int, seed int64) (*HashSketch, stream.FreqVector) {
	t.Helper()
	s := MustNewHashSketch(c)
	f := stream.NewFreqVector()
	for v, w := range heavy {
		s.Update(v, w)
		f.Update(v, w)
	}
	g := workload.NewUniform(domain, seed)
	for i := 0; i < lightN; i++ {
		v := g.Next()
		s.Update(v, 1)
		f.Update(v, 1)
	}
	return s, f
}

func TestSkimDenseRejectsBadThreshold(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	if _, err := s.SkimDense(16, 0); err == nil {
		t.Fatal("expected error for threshold 0")
	}
	if _, err := s.SkimValues([]uint64{1}, -5); err == nil {
		t.Fatal("expected error for negative threshold")
	}
}

func TestSkimDenseExtractsHeavyValues(t *testing.T) {
	const domain = 1 << 10
	heavy := map[uint64]int64{3: 5000, 500: 3000, 900: 2500}
	s, _ := buildSkewed(t, cfg(7, 256, 11), domain, heavy, 4000, 1)

	dense, err := s.SkimDense(domain, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range heavy {
		got, ok := dense[v]
		if !ok {
			t.Fatalf("heavy value %d (f=%d) not extracted", v, w)
		}
		diff := got - w
		if diff < 0 {
			diff = -diff
		}
		// Point-estimate error bound is ≈ n/√b ≈ 18500/16 ≈ 1150, but the
		// heavy values dominate F2; allow a loose band.
		if diff > 1200 {
			t.Fatalf("extracted estimate %d for value %d too far from %d", got, v, w)
		}
	}
}

// TestSkimResidualSmall: after skimming, the point estimate of a
// previously heavy value must be far below its original frequency —
// Theorem 4's residual bound in spirit.
func TestSkimResidualSmall(t *testing.T) {
	const domain = 1 << 10
	heavy := map[uint64]int64{3: 5000, 500: 3000}
	s, _ := buildSkewed(t, cfg(7, 256, 13), domain, heavy, 4000, 2)

	if _, err := s.SkimDense(domain, 1000); err != nil {
		t.Fatal(err)
	}
	for v := range heavy {
		res := s.PointEstimate(v)
		if res < 0 {
			res = -res
		}
		if res > 1200 {
			t.Fatalf("residual estimate %d for skimmed value %d too large", res, v)
		}
	}
}

// The skim is one-sided: a large negative frequency is not extracted.
func TestSkimIgnoresNegativeDense(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 64, 3))
	s.Update(7, -500)
	dense, err := s.SkimDense(16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(dense) != 0 {
		t.Fatalf("one-sided skim extracted %v", dense)
	}
}

// TestSkimValuesMatchesDomainScan: skimming an explicit candidate list
// covering the domain is identical to the domain scan.
func TestSkimValuesMatchesDomainScan(t *testing.T) {
	const domain = 512
	heavy := map[uint64]int64{5: 900, 300: 800}
	s1, _ := buildSkewed(t, cfg(5, 128, 19), domain, heavy, 2000, 4)
	s2 := s1.Clone()

	d1, err := s1.SkimDense(domain, 300)
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]uint64, domain)
	for i := range candidates {
		candidates[i] = uint64(i)
	}
	// Include duplicates to exercise the dedup path.
	candidates = append(candidates, 5, 300)
	d2, err := s2.SkimValues(candidates, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("dense sets differ in size: %d vs %d", len(d1), len(d2))
	}
	for v, w := range d1 {
		if d2[v] != w {
			t.Fatalf("dense sets differ at %d: %d vs %d", v, d2[v], w)
		}
	}
	for j := 0; j < 5; j++ {
		for k := 0; k < 128; k++ {
			if s1.counters[j*s1.cfg.Buckets+k] != s2.counters[j*s2.cfg.Buckets+k] {
				t.Fatal("skimmed counters must agree")
			}
		}
	}
}

// TestSubtractExported: the exported Subtract is exactly the negated
// update (the dyadic skimmer depends on it to keep levels consistent).
func TestSubtractExported(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 16, 5))
	s.Update(4, 100)
	s.Update(9, 50)
	before := s.Clone()
	dense := stream.FreqVector{4: 80, 9: 50}
	s.Subtract(dense)
	if got := s.PointEstimate(4); got != 20 {
		t.Fatalf("estimate after subtract = %d, want 20", got)
	}
	for v, w := range dense {
		s.Update(v, w)
	}
	for j := 0; j < 3; j++ {
		for k := 0; k < 16; k++ {
			if s.counters[j*s.cfg.Buckets+k] != before.counters[j*before.cfg.Buckets+k] {
				t.Fatal("Subtract then Update must be the identity")
			}
		}
	}
}

// TestSkimNothingBelowThreshold: a uniform light stream yields no dense
// values at a high threshold, and skimming is then a no-op on counters.
func TestSkimNothingBelowThreshold(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 128, 23))
	g := workload.NewUniform(1024, 9)
	for i := 0; i < 2000; i++ {
		s.Update(g.Next(), 1)
	}
	before := s.Clone()
	dense, err := s.SkimDense(1024, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(dense) != 0 {
		t.Fatalf("extracted %d values from a light stream", len(dense))
	}
	for j := 0; j < 5; j++ {
		for k := 0; k < 128; k++ {
			if s.counters[j*s.cfg.Buckets+k] != before.counters[j*before.cfg.Buckets+k] {
				t.Fatal("empty skim must not change counters")
			}
		}
	}
}
