package workload

import (
	"testing"

	"skimsketch/internal/stream"
)

func TestMixtureHotMass(t *testing.T) {
	base := NewUniform(1<<12, 1)
	hot := []uint64{5, 900}
	g := NewMixture(base, hot, 0.5, 2)
	if g.Domain() != 1<<12 {
		t.Fatalf("Domain = %d", g.Domain())
	}
	f := stream.NewFreqVector()
	const n = 40000
	for i := 0; i < n; i++ {
		f.Update(g.Next(), 1)
	}
	hotMass := f.Get(5) + f.Get(900)
	frac := float64(hotMass) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("hot mass fraction %.3f, want ≈ 0.5", frac)
	}
	// Both hot values should be far denser than any typical base value.
	if f.Get(5) < 1000 || f.Get(900) < 1000 {
		t.Fatalf("hot values too light: %d/%d", f.Get(5), f.Get(900))
	}
}

func TestMixtureClampsProb(t *testing.T) {
	base := NewUniform(16, 1)
	all := NewMixture(base, []uint64{3}, 2.0, 2) // clamped to 1
	for i := 0; i < 100; i++ {
		if all.Next() != 3 {
			t.Fatal("hotProb 1 must always draw hot")
		}
	}
	none := NewMixture(base, []uint64{3}, -1, 2) // clamped to 0
	hits := 0
	for i := 0; i < 1000; i++ {
		if none.Next() == 3 {
			hits++
		}
	}
	if hits > 200 { // only base-rate occurrences of value 3
		t.Fatalf("hotProb 0 drew hot %d times", hits)
	}
}

func TestMixtureEmptyHotFallsBack(t *testing.T) {
	base := NewUniform(16, 1)
	g := NewMixture(base, nil, 0.9, 2)
	for i := 0; i < 100; i++ {
		if g.Next() >= 16 {
			t.Fatal("must fall back to base")
		}
	}
}

func TestMixtureCopiesHotSlice(t *testing.T) {
	hot := []uint64{1}
	g := NewMixture(NewUniform(16, 1), hot, 1, 2)
	hot[0] = 9
	if g.Next() != 1 {
		t.Fatal("Mixture must copy the hot slice")
	}
}
