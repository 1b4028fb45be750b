package hashfam

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestReduceRange(t *testing.T) {
	cases := []uint64{0, 1, MersennePrime - 1, MersennePrime, MersennePrime + 1, math.MaxUint64}
	for _, c := range cases {
		got := reduce(c)
		if got >= MersennePrime {
			t.Fatalf("reduce(%d) = %d out of field", c, got)
		}
		want := new(big.Int).Mod(new(big.Int).SetUint64(c), new(big.Int).SetUint64(MersennePrime)).Uint64()
		if got != want {
			t.Fatalf("reduce(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestMulmodAgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime)
	f := func(a, b uint64) bool {
		a = reduce(a)
		b = reduce(b)
		got := mulmod(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddmodAgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime)
	f := func(a, b uint64) bool {
		a = reduce(a)
		b = reduce(b)
		got := addmod(a, b)
		want := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedStreamDeterministic(t *testing.T) {
	a := NewSeedStream(42)
	b := NewSeedStream(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same master seed must yield identical sub-seed streams")
		}
	}
	c := NewSeedStream(43)
	same := 0
	a = NewSeedStream(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different master seeds collided %d/100 times", same)
	}
}

func TestPairwiseHashInField(t *testing.T) {
	s := NewSeedStream(1)
	h := NewPairwise(s)
	f := func(x uint64) bool { return h.Hash(x) < MersennePrime }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairwiseBucketRange(t *testing.T) {
	s := NewSeedStream(7)
	h := NewPairwise(s)
	for _, nb := range []int{1, 2, 3, 64, 1021} {
		for x := uint64(0); x < 1000; x++ {
			b := h.Bucket(x, nb)
			if b < 0 || b >= nb {
				t.Fatalf("bucket %d out of [0,%d)", b, nb)
			}
		}
	}
}

// TestPairwiseBucketUniformity is a coarse chi-squared sanity check that
// the bucket hash spreads a contiguous domain evenly.
func TestPairwiseBucketUniformity(t *testing.T) {
	s := NewSeedStream(1234)
	h := NewPairwise(s)
	const nb = 64
	const n = 64 * 1000
	counts := make([]int, nb)
	for x := uint64(0); x < n; x++ {
		counts[h.Bucket(x, nb)]++
	}
	expected := float64(n) / nb
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom; the 0.9999 quantile is ~117. Be generous.
	if chi2 > 150 {
		t.Fatalf("chi-squared %.1f too large for uniform buckets", chi2)
	}
}

func TestFourWiseSignIsPlusMinusOne(t *testing.T) {
	s := NewSeedStream(9)
	f := NewFourWise(s)
	g := func(x uint64) bool {
		v := f.Sign(x)
		return v == 1 || v == -1
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFourWiseSignBalance checks E[ξ] ≈ 0 empirically across many
// independently drawn families (the AMS unbiasedness hinge).
func TestFourWiseSignBalance(t *testing.T) {
	s := NewSeedStream(99)
	const fams = 200
	const n = 500
	total := 0.0
	for i := 0; i < fams; i++ {
		f := NewFourWise(s)
		sum := int64(0)
		for x := uint64(0); x < n; x++ {
			sum += f.Sign(x)
		}
		total += float64(sum) / n
	}
	mean := total / fams
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean sign %.4f too far from 0", mean)
	}
}

// TestFourWisePairProductsBalance checks E[ξ(x)ξ(y)] ≈ 0 for x ≠ y, the
// pairwise consequence of four-wise independence that makes cross terms
// vanish in expectation.
func TestFourWisePairProductsBalance(t *testing.T) {
	s := NewSeedStream(123)
	const fams = 400
	sum := 0.0
	for i := 0; i < fams; i++ {
		f := NewFourWise(s)
		sum += float64(f.Sign(3) * f.Sign(77))
	}
	mean := sum / fams
	if math.Abs(mean) > 0.12 { // sd of the mean is 1/sqrt(400) = 0.05
		t.Fatalf("mean pair product %.4f too far from 0", mean)
	}
}

func TestFourWiseLeadingCoefficientNonZero(t *testing.T) {
	s := NewSeedStream(5)
	for i := 0; i < 100; i++ {
		f := NewFourWise(s)
		if f.a3 == 0 {
			t.Fatal("leading coefficient must be non-zero")
		}
	}
}

func TestPairwiseLeadingCoefficientNonZero(t *testing.T) {
	s := NewSeedStream(6)
	for i := 0; i < 100; i++ {
		h := NewPairwise(s)
		if h.a == 0 {
			t.Fatal("slope must be non-zero")
		}
	}
}

func BenchmarkFourWiseSign(b *testing.B) {
	s := NewSeedStream(1)
	f := NewFourWise(s)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += f.Sign(uint64(i))
	}
	_ = sink
}

func BenchmarkPairwiseBucket(b *testing.B) {
	s := NewSeedStream(1)
	h := NewPairwise(s)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.Bucket(uint64(i), 1024)
	}
	_ = sink
}

// polyBig evaluates Σ coeffs[i]·x^i mod p in big.Int arithmetic on the
// unreduced 64-bit x: an independent reference for both families and
// the row kernel.
func polyBig(x uint64, coeffs ...uint64) uint64 {
	p := new(big.Int).SetUint64(MersennePrime)
	xb := new(big.Int).SetUint64(x)
	r := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		r.Mul(r, xb)
		r.Add(r, new(big.Int).SetUint64(coeffs[i]))
		r.Mod(r, p)
	}
	return r.Uint64()
}
