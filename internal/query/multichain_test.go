package query

import (
	"math"
	"testing"

	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestNewMultiChainValidation(t *testing.T) {
	if _, err := NewMultiChain(0, 4, 3, 1); err == nil {
		t.Fatal("expected attrs error")
	}
	if _, err := NewMultiChain(2, 0, 3, 1); err == nil {
		t.Fatal("expected dims error")
	}
}

func TestMultiChainShape(t *testing.T) {
	c, err := NewMultiChain(3, 4, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Streams() != 4 {
		t.Fatalf("Streams = %d", c.Streams())
	}
	if c.Words() != 4*4*5 {
		t.Fatalf("Words = %d", c.Words())
	}
}

func TestMultiChainStreamIndexValidation(t *testing.T) {
	c, _ := NewMultiChain(3, 2, 2, 1)
	if err := c.UpdateEnd(1, 5, 1); err == nil {
		t.Fatal("stream 1 is interior")
	}
	if err := c.UpdateInterior(0, 1, 2, 1); err == nil {
		t.Fatal("stream 0 is an end")
	}
	if err := c.UpdateInterior(3, 1, 2, 1); err == nil {
		t.Fatal("stream 3 is an end")
	}
	if err := c.UpdateEnd(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateEnd(3, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateInterior(2, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestMultiChainExactSingleValues: with one value per attribute, every
// ξ appears squared and the estimate is exact.
func TestMultiChainExactSingleValues(t *testing.T) {
	// 3 attributes, 4 streams: R0(a)=2, S1(a,b)=3, S2(b,c)=4, R3(c)=5.
	c, _ := NewMultiChain(3, 4, 5, 9)
	if err := c.UpdateEnd(0, 10, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateInterior(1, 10, 20, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateInterior(2, 20, 30, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateEnd(3, 30, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.Estimate(); got != 2*3*4*5 {
		t.Fatalf("estimate = %d, want 120", got)
	}
}

// TestMultiChainMatchesChain: with 2 attributes the generalized
// estimator answers the two-join chain R ⋈ S ⋈ T. The hand-folded exact
// answer must equal ExactChain, and the estimate must be close to it.
func TestMultiChainMatchesChain(t *testing.T) {
	const m = 32
	mc, _ := NewMultiChain(2, 256, 9, 31)

	rg, _ := workload.NewZipf(m, 1.0, 1)
	ag, _ := workload.NewZipf(m, 1.0, 2)
	bg, _ := workload.NewZipf(m, 1.0, 3)
	tg, _ := workload.NewZipf(m, 1.0, 4)

	var rs, ts []stream.Update
	var sp []SPair
	r := make([]int64, m)
	tt := make([]int64, m)
	s := map[[2]uint64]int64{}
	for i := 0; i < 3000; i++ {
		rv := rg.Next()
		r[rv]++
		rs = append(rs, stream.Insert(rv))
		mc.UpdateEnd(0, rv, 1)

		a, b := ag.Next(), bg.Next()
		s[[2]uint64{a, b}]++
		sp = append(sp, SPair{A: a, B: b, Weight: 1})
		mc.UpdateInterior(1, a, b, 1)

		tv := tg.Next()
		tt[tv]++
		ts = append(ts, stream.Insert(tv))
		mc.UpdateEnd(2, tv, 1)
	}
	var exact int64
	for k, w := range s {
		exact += r[k[0]] * w * tt[k[1]]
	}
	if ec := ExactChain(rs, sp, ts); ec != exact {
		t.Fatalf("ExactChain = %d, hand fold = %d", ec, exact)
	}
	if em := stats.SymmetricError(float64(mc.Estimate()), float64(exact)); em > 2 {
		t.Fatalf("multichain error %.3f too large (exact %d)", em, exact)
	}
}

// TestMultiChainThreeWayAccuracy: a 3-attribute (4-stream) chain join
// estimated within a loose band.
func TestMultiChainThreeWayAccuracy(t *testing.T) {
	const m = 16
	c, _ := NewMultiChain(3, 512, 9, 7)
	g := func(seed int64) *workload.Zipf {
		z, _ := workload.NewZipf(m, 0.8, seed)
		return z
	}
	r0, s1a, s1b, s2a, s2b, r3 := g(1), g(2), g(3), g(4), g(5), g(6)

	rf := make([]int64, m)
	tf := make([]int64, m)
	sp1 := map[[2]uint64]int64{}
	sp2 := map[[2]uint64]int64{}
	for i := 0; i < 2000; i++ {
		v := r0.Next()
		rf[v]++
		c.UpdateEnd(0, v, 1)
		a, b := s1a.Next(), s1b.Next()
		sp1[[2]uint64{a, b}]++
		c.UpdateInterior(1, a, b, 1)
		x, y := s2a.Next(), s2b.Next()
		sp2[[2]uint64{x, y}]++
		c.UpdateInterior(2, x, y, 1)
		w := r3.Next()
		tf[w]++
		c.UpdateEnd(3, w, 1)
	}
	// Exact chain: Σ r(a)·s1(a,b)·s2(b,c)·t(c), folded left to right.
	left := make([]int64, m) // left[b] = Σ_a r(a)·s1(a,b)
	for k, w := range sp1 {
		left[k[1]] += rf[k[0]] * w
	}
	var exact int64
	for k, w := range sp2 {
		exact += left[k[0]] * w * tf[k[1]]
	}
	if exact == 0 {
		t.Skip("degenerate workload")
	}
	got := c.Estimate()
	if e := stats.SymmetricError(float64(got), float64(exact)); e > 3 {
		t.Fatalf("3-way chain error %.3f (est %d vs exact %d)", e, got, exact)
	}
}

func TestMultiChainDeleteInvariance(t *testing.T) {
	a, _ := NewMultiChain(2, 8, 3, 2)
	b, _ := NewMultiChain(2, 8, 3, 2)
	a.UpdateEnd(0, 1, 1)
	a.UpdateInterior(1, 1, 2, 1)
	a.UpdateEnd(2, 2, 1)
	b.UpdateEnd(0, 1, 1)
	b.UpdateEnd(0, 7, 2)
	b.UpdateEnd(0, 7, -2)
	b.UpdateInterior(1, 1, 2, 1)
	b.UpdateInterior(1, 9, 9, 5)
	b.UpdateInterior(1, 9, 9, -5)
	b.UpdateEnd(2, 2, 1)
	if a.Estimate() != b.Estimate() {
		t.Fatal("delete noise must not change the estimate")
	}
}

// The TestChain* tests check the two-join chain R(A) ⋈ S(A,B) ⋈ T(B),
// the paper's chain query, on its estimator NewMultiChain(2, …): streams
// 0 and 2 are the ends R and T, stream 1 is the interior S.

func TestNewChainValidation(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {-1, 1}, {3, 0}} {
		if _, err := NewMultiChain(2, dims[0], dims[1], 1); err == nil {
			t.Fatalf("expected dims error for s1=%d s2=%d", dims[0], dims[1])
		}
	}
}

func TestChainExactSingleValues(t *testing.T) {
	// One value per stream: X products are exact (ξ² = 1).
	c, _ := NewMultiChain(2, 4, 5, 9)
	if err := c.UpdateEnd(0, 3, 4); err != nil { // r_3 = 4
		t.Fatal(err)
	}
	if err := c.UpdateInterior(1, 3, 8, 2); err != nil { // s_{3,8} = 2
		t.Fatal(err)
	}
	if err := c.UpdateEnd(2, 8, 5); err != nil { // t_8 = 5
		t.Fatal(err)
	}
	if got := c.Estimate(); got != 40 {
		t.Fatalf("chain estimate = %d, want 40", got)
	}
	if c.Words() != 3*4*5 {
		t.Fatalf("Words = %d", c.Words())
	}
}

func TestChainNonJoiningIsZeroInExpectation(t *testing.T) {
	// r and t use disjoint attribute values from s: the exact chain is 0
	// and the estimate should be near 0 relative to stream size.
	c, _ := NewMultiChain(2, 64, 7, 13)
	c.UpdateEnd(0, 1, 50)
	c.UpdateInterior(1, 2, 3, 50) // a=2 never joins r's a=1
	c.UpdateEnd(2, 3, 50)
	if got := c.Estimate(); math.Abs(float64(got)) > 50*50*50/4 {
		t.Fatalf("chain estimate %d too far from 0 for a non-joining chain", got)
	}
}

func TestChainAccuracy(t *testing.T) {
	const m = 64
	rgen, _ := workload.NewZipf(m, 1.0, 5)
	tgen, _ := workload.NewZipf(m, 1.0, 6)
	agen, _ := workload.NewZipf(m, 1.0, 7)
	bgen, _ := workload.NewZipf(m, 1.0, 8)

	var r, tt []stream.Update
	var s []SPair
	c, _ := NewMultiChain(2, 256, 9, 31)
	for i := 0; i < 4000; i++ {
		rv := rgen.Next()
		r = append(r, stream.Insert(rv))
		c.UpdateEnd(0, rv, 1)

		tv := tgen.Next()
		tt = append(tt, stream.Insert(tv))
		c.UpdateEnd(2, tv, 1)

		a, b := agen.Next(), bgen.Next()
		s = append(s, SPair{A: a, B: b, Weight: 1})
		c.UpdateInterior(1, a, b, 1)
	}
	exact := ExactChain(r, s, tt)
	got := c.Estimate()
	if e := stats.SymmetricError(float64(got), float64(exact)); e > 1.5 {
		t.Fatalf("chain error %.3f too large (est %d vs exact %d)", e, got, exact)
	}
}

func TestChainDeleteInvariance(t *testing.T) {
	a, _ := NewMultiChain(2, 8, 3, 2)
	b, _ := NewMultiChain(2, 8, 3, 2)
	a.UpdateEnd(0, 1, 1)
	a.UpdateInterior(1, 1, 2, 1)
	a.UpdateEnd(2, 2, 1)
	b.UpdateEnd(0, 1, 1)
	b.UpdateEnd(0, 9, 1)
	b.UpdateEnd(0, 9, -1)
	b.UpdateInterior(1, 1, 2, 1)
	b.UpdateInterior(1, 4, 4, 2)
	b.UpdateInterior(1, 4, 4, -2)
	b.UpdateEnd(2, 2, 1)
	if a.Estimate() != b.Estimate() {
		t.Fatal("insert/delete noise must not change the chain estimate")
	}
}
