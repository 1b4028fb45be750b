package workload

import (
	"math"
	"testing"

	"skimsketch/internal/stream"
)

func TestNewZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1.0, 1); err == nil {
		t.Fatal("expected error for zero domain")
	}
	if _, err := NewZipf(10, -1, 1); err == nil {
		t.Fatal("expected error for negative z")
	}
}

func TestZipfInDomain(t *testing.T) {
	g, err := NewZipf(100, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Domain() != 100 {
		t.Fatalf("Domain = %d", g.Domain())
	}
	for i := 0; i < 10000; i++ {
		if v := g.Next(); v >= 100 {
			t.Fatalf("value %d outside domain", v)
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, _ := NewZipf(64, 1.2, 5)
	b, _ := NewZipf(64, 1.2, 5)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same sequence")
		}
	}
}

// TestZipfSkewShape: value 0 should appear with frequency roughly
// proportional to 1/H_m for z=1, and rank-frequency should decay.
func TestZipfSkewShape(t *testing.T) {
	const m, n = 1024, 200000
	g, _ := NewZipf(m, 1.0, 11)
	f := stream.NewFreqVector()
	for i := 0; i < n; i++ {
		f.Update(g.Next(), 1)
	}
	// Expected P(0) = 1/H_m.
	h := 0.0
	for i := 1; i <= m; i++ {
		h += 1 / float64(i)
	}
	want := float64(n) / h
	got := float64(f.Get(0))
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("f(0) = %.0f, want ≈ %.0f", got, want)
	}
	if f.Get(0) <= f.Get(10) || f.Get(10) <= f.Get(200) {
		t.Fatalf("frequencies must decay with rank: f0=%d f10=%d f200=%d",
			f.Get(0), f.Get(10), f.Get(200))
	}
}

// TestZipfHigherSkewConcentrates: z=1.5 puts more mass on the top value
// than z=1.0.
func TestZipfHigherSkewConcentrates(t *testing.T) {
	const m, n = 4096, 100000
	lo, _ := NewZipf(m, 1.0, 2)
	hi, _ := NewZipf(m, 1.5, 2)
	fl, fh := stream.NewFreqVector(), stream.NewFreqVector()
	for i := 0; i < n; i++ {
		fl.Update(lo.Next(), 1)
		fh.Update(hi.Next(), 1)
	}
	if fh.Get(0) <= fl.Get(0) {
		t.Fatalf("z=1.5 top frequency %d should exceed z=1.0's %d", fh.Get(0), fl.Get(0))
	}
}

func TestShiftedMapsFrequencies(t *testing.T) {
	const m, n, shift = 512, 50000, 100
	base, _ := NewZipf(m, 1.0, 9)
	sh := NewShifted(base, shift)
	if sh.Domain() != m {
		t.Fatalf("Domain = %d", sh.Domain())
	}
	f := stream.NewFreqVector()
	for i := 0; i < n; i++ {
		f.Update(sh.Next(), 1)
	}
	// The shifted stream's most frequent value must be at `shift`.
	var best uint64
	var bestW int64
	for v, w := range f {
		if w > bestW {
			best, bestW = v, w
		}
	}
	if best != shift {
		t.Fatalf("mode at %d, want %d", best, shift)
	}
}

// TestShiftShrinksJoin verifies the paper's knob: larger shifts mean
// smaller joins between the base and shifted stream.
func TestShiftShrinksJoin(t *testing.T) {
	const m, n = 1024, 40000
	joins := make([]int64, 0, 3)
	for _, shift := range []uint64{0, 50, 300} {
		b1, _ := NewZipf(m, 1.0, 21)
		b2, _ := NewZipf(m, 1.0, 22)
		fs := MakeStream(b1, n)
		gs := MakeStream(NewShifted(b2, shift), n)
		f, g := stream.NewFreqVector(), stream.NewFreqVector()
		stream.Apply(fs, f)
		stream.Apply(gs, g)
		joins = append(joins, f.InnerProduct(g))
	}
	if !(joins[0] > joins[1] && joins[1] > joins[2]) {
		t.Fatalf("join sizes must shrink with shift: %v", joins)
	}
}

func TestUniform(t *testing.T) {
	g := NewUniform(16, 4)
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		v := g.Next()
		if v >= 16 {
			t.Fatalf("out of domain: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("value %d count %d far from uniform 1000", v, c)
		}
	}
}

func TestMakeStream(t *testing.T) {
	g := NewUniform(8, 3)
	s := MakeStream(g, 100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for _, u := range s {
		if u.Weight != 1 {
			t.Fatal("MakeStream must emit inserts")
		}
	}
}

func TestWithDeletesPreservesNetVector(t *testing.T) {
	g, _ := NewZipf(256, 1.0, 13)
	base := MakeStream(g, 5000)
	noisy := WithDeletes(base, 0.3, 99)
	if len(noisy) <= len(base) {
		t.Fatal("delete noise must add updates")
	}
	want, got := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(base, want)
	stream.Apply(noisy, got)
	if len(want) != len(got) {
		t.Fatalf("support %d vs %d", len(want), len(got))
	}
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("net frequency of %d changed: %d vs %d", v, got[v], w)
		}
	}
}

func TestCensusPairShape(t *testing.T) {
	wage, ot := CensusPair(20000, 5)
	if len(wage) != 20000 || len(ot) != 20000 {
		t.Fatal("record counts")
	}
	fw, fo := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(wage, fw)
	stream.Apply(ot, fo)
	for v := range fw {
		if v >= CensusDomain {
			t.Fatalf("wage value %d out of domain", v)
		}
	}
	for v := range fo {
		if v >= CensusDomain {
			t.Fatalf("overtime value %d out of domain", v)
		}
	}
	// Overtime must be mostly zero; wage zero spike around 18%.
	if z := float64(fo.Get(0)) / 20000; z < 0.75 {
		t.Fatalf("overtime zero fraction %.2f too small", z)
	}
	wz := float64(fw.Get(0)) / 20000
	if wz < 0.12 || wz > 0.25 {
		t.Fatalf("wage zero fraction %.2f outside expected band", wz)
	}
	// The join must be non-trivial (dominated by the shared zero spike).
	if j := fw.InnerProduct(fo); j <= 0 {
		t.Fatalf("join size %d must be positive", j)
	}
}

func TestCensusDeterministic(t *testing.T) {
	w1, o1 := CensusPair(1000, 9)
	w2, o2 := CensusPair(1000, 9)
	for i := range w1 {
		if w1[i] != w2[i] || o1[i] != o2[i] {
			t.Fatal("census generation must be deterministic per seed")
		}
	}
}
