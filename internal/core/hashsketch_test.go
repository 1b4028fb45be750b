package core

import (
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func cfg(d, b int, seed uint64) Config { return Config{Tables: d, Buckets: b, Seed: seed} }

func TestConfigValidate(t *testing.T) {
	if err := cfg(0, 8, 1).Validate(); err == nil {
		t.Fatal("expected error for zero tables")
	}
	if err := cfg(3, 0, 1).Validate(); err == nil {
		t.Fatal("expected error for zero buckets")
	}
	if err := cfg(3, 8, 1).Validate(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := NewHashSketch(cfg(-1, 8, 1)); err == nil {
		t.Fatal("NewHashSketch must reject bad config")
	}
}

func TestMustNewHashSketchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewHashSketch(cfg(0, 0, 0))
}

func TestUpdateTouchesOneCounterPerTable(t *testing.T) {
	s := MustNewHashSketch(cfg(7, 32, 5))
	s.Update(99, 1)
	for j := 0; j < 7; j++ {
		nonzero := 0
		for k := 0; k < 32; k++ {
			if c := s.counters[j*s.cfg.Buckets+k]; c != 0 {
				nonzero++
				if c != 1 && c != -1 {
					t.Fatalf("counter magnitude %d, want ±1", c)
				}
			}
		}
		if nonzero != 1 {
			t.Fatalf("table %d has %d nonzero counters, want exactly 1", j, nonzero)
		}
	}
}

func TestAccountingCounts(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	s.Update(1, 5)
	s.Update(2, -3)
	if s.NetCount() != 2 {
		t.Fatalf("NetCount = %d, want 2", s.NetCount())
	}
	if s.GrossCount() != 8 {
		t.Fatalf("GrossCount = %d, want 8", s.GrossCount())
	}
	if s.Words() != 24 {
		t.Fatalf("Words = %d, want 24", s.Words())
	}
	if s.Config() != cfg(3, 8, 1) {
		t.Fatal("Config must round-trip")
	}
}

func TestDeleteInvarianceHashSketch(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 16, 9))
	s.Update(10, 1)
	s.Update(77, 4)
	s.Update(10, -1)
	s.Update(77, -4)
	for j := 0; j < 5; j++ {
		for k := 0; k < 16; k++ {
			if s.counters[j*s.cfg.Buckets+k] != 0 {
				t.Fatal("deletes must exactly cancel inserts")
			}
		}
	}
	if s.NetCount() != 0 {
		t.Fatalf("NetCount = %d", s.NetCount())
	}
}

func TestCompatibility(t *testing.T) {
	a := MustNewHashSketch(cfg(3, 8, 1))
	b := MustNewHashSketch(cfg(3, 8, 1))
	c := MustNewHashSketch(cfg(3, 8, 2))
	if !a.Compatible(b) {
		t.Fatal("same config must be compatible")
	}
	if a.Compatible(c) {
		t.Fatal("different seed must be incompatible")
	}
}

func TestPointEstimateExactSingleValue(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 16, 3))
	for i := 0; i < 12; i++ {
		s.Update(7, 1)
	}
	if got := s.PointEstimate(7); got != 12 {
		t.Fatalf("PointEstimate = %d, want 12 (only value in stream)", got)
	}
}

func TestPointEstimateNegativeFrequency(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 16, 3))
	s.Update(7, -9)
	if got := s.PointEstimate(7); got != -9 {
		t.Fatalf("PointEstimate = %d, want -9", got)
	}
}

// TestPointEstimateAccuracy checks the Theorem 3 shape: additive error at
// most a few multiples of ‖f‖₂/√b for every domain value.
func TestPointEstimateAccuracy(t *testing.T) {
	const m, n = 1 << 10, 30000
	g, err := workload.NewZipf(m, 1.0, 21)
	if err != nil {
		t.Fatal(err)
	}
	updates := workload.MakeStream(g, n)
	f := stream.NewFreqVector()
	s := MustNewHashSketch(cfg(7, 256, 77))
	stream.Apply(updates, f, s)

	bound := 4 * int64(float64(n)/16) // 4·n/√b with √b = 16
	for v := uint64(0); v < m; v += 7 {
		est := s.PointEstimate(v)
		diff := est - f.Get(v)
		if diff < 0 {
			diff = -diff
		}
		if diff > bound {
			t.Fatalf("value %d: |est %d − f %d| = %d exceeds bound %d", v, est, f.Get(v), diff, bound)
		}
	}
}

func TestSelfJoinEstimateExactSingleValue(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 16, 3))
	for i := 0; i < 9; i++ {
		s.Update(42, 1)
	}
	if got := s.SelfJoinEstimate(); got != 81 {
		t.Fatalf("SelfJoinEstimate = %d, want 81", got)
	}
}

func TestSelfJoinEstimateAccuracy(t *testing.T) {
	const m, n = 1 << 10, 30000
	g, _ := workload.NewZipf(m, 1.1, 31)
	updates := workload.MakeStream(g, n)
	f := stream.NewFreqVector()
	s := MustNewHashSketch(cfg(7, 512, 13))
	stream.Apply(updates, f, s)
	exact := f.SelfJoinSize()
	got := s.SelfJoinEstimate()
	ratio := float64(got) / float64(exact)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("F2 estimate %d vs exact %d (ratio %.3f)", got, exact, ratio)
	}
}

func TestDefaultSkimThreshold(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 100, 1))
	if got := s.DefaultSkimThreshold(); got != 1 {
		t.Fatalf("empty sketch threshold = %d, want 1", got)
	}
	for i := 0; i < 1000; i++ {
		s.Update(uint64(i), 1)
	}
	// n=1000, √b=10 → T = 100.
	if got := s.DefaultSkimThreshold(); got != 100 {
		t.Fatalf("threshold = %d, want 100", got)
	}
	// Net-negative streams use |n|.
	s.Reset()
	s.Update(1, -1000)
	if got := s.DefaultSkimThreshold(); got != 100 {
		t.Fatalf("threshold = %d, want 100 for net -1000", got)
	}
}

func TestCloneCombineReset(t *testing.T) {
	a := MustNewHashSketch(cfg(3, 8, 4))
	b := MustNewHashSketch(cfg(3, 8, 4))
	both := MustNewHashSketch(cfg(3, 8, 4))
	stream.Apply([]stream.Update{{Value: 1, Weight: 2}, {Value: 5, Weight: -1}}, a, both)
	stream.Apply([]stream.Update{{Value: 9, Weight: 3}}, b, both)

	c := a.Clone()
	if err := a.Combine(b); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		for k := 0; k < 8; k++ {
			if a.counters[j*a.cfg.Buckets+k] != both.counters[j*both.cfg.Buckets+k] {
				t.Fatal("Combine must equal sketching the concatenation")
			}
		}
	}
	if a.NetCount() != both.NetCount() || a.GrossCount() != both.GrossCount() {
		t.Fatal("Combine must merge the counts")
	}
	// Clone must be unaffected by the Combine.
	if c.NetCount() != 1 {
		t.Fatalf("clone net = %d, want 1", c.NetCount())
	}
	other := MustNewHashSketch(cfg(3, 8, 5))
	if err := a.Combine(other); err == nil {
		t.Fatal("expected incompatibility error")
	}
	a.Reset()
	if a.NetCount() != 0 || a.GrossCount() != 0 || a.counters[0] != 0 {
		t.Fatal("Reset must zero everything")
	}
}

func TestPairedSketchesShareHashes(t *testing.T) {
	a := MustNewHashSketch(cfg(5, 64, 123))
	b := MustNewHashSketch(cfg(5, 64, 123))
	for j := 0; j < 5; j++ {
		if a.rows[j] != b.rows[j] {
			t.Fatal("same config must derive identical hash families")
		}
	}
}
