package hashfam

import (
	"math"
	"math/rand"
	"testing"
)

// checkRow checks the row kernel at one input against big.Int: the
// full hash values behind it, At, the scalar Bucket and Sign, and Fold
// where a row of nb counters fits in a test.
func checkRow(t *testing.T, r Row, v, nb uint64) {
	t.Helper()
	hBig, xiBig := polyBig(v, r.H.b, r.H.a), polyBig(v, r.Xi.a0, r.Xi.a1, r.Xi.a2, r.Xi.a3)
	p := PowersOf(v)
	if h, xi := mulAdd(r.H.a, p.x1, r.H.b), reduce124(r.Xi.sum(p)); h != hBig || xi != xiBig {
		t.Fatalf("hashes at %d = (%d, %d), big.Int (%d, %d)", v, h, xi, hBig, xiBig)
	}
	wantK, wantS := int(hBig%nb), signOf(xiBig)
	if k, s := r.At(p, nb); k != wantK || s != wantS {
		t.Fatalf("At(%d, nb %d) = (%d, %d), big.Int (%d, %d)", v, nb, k, s, wantK, wantS)
	}
	if k, s := r.H.Bucket(v, int(nb)), r.Xi.Sign(v); k != wantK || s != wantS {
		t.Fatalf("Bucket, Sign (%d, nb %d) = (%d, %d), big.Int (%d, %d)", v, nb, k, s, wantK, wantS)
	}
	if nb <= 1<<16 {
		row := make([]int64, nb)
		Fold([]Row{r}, row, []Term{{Powers: p, Weight: 3}})
		for k, c := range row {
			want := int64(0)
			if k == wantK {
				want = 3 * wantS
			}
			if c != want {
				t.Fatalf("Fold(%d, nb %d): counter %d = %d, want %d", v, nb, k, c, want)
			}
		}
	}
}

// The row kernel's bucket and sign equal big.Int evaluation at the edges
// of the field and the uint64 range and at random full-range inputs, for
// bucket counts from 1 to 2^31−1.
func TestRowKernelAgainstBigInt(t *testing.T) {
	p := MersennePrime
	inputs := []uint64{0, 1, p - 1, p, p + 1, 2*p - 1, math.MaxUint64}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		inputs = append(inputs, rng.Uint64())
	}
	s := NewSeedStream(2048)
	for fam := 0; fam < 8; fam++ {
		h := NewPairwise(s)
		r := Row{H: h, Xi: NewFourWise(s)}
		for _, nb := range []uint64{1, 2, 3, 1000, 2048, 4093, 1<<31 - 1} {
			for _, v := range inputs {
				checkRow(t, r, v, nb)
			}
		}
	}
}

// Fold adds a multi-term chunk into every table exactly as one At per
// term and table would.
func TestFoldMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSeedStream(9)
	rows := make([]Row, 3)
	for j := range rows {
		h := NewPairwise(s)
		rows[j] = Row{H: h, Xi: NewFourWise(s)}
	}
	const nb = 37
	terms := make([]Term, 500)
	want := make([]int64, len(rows)*nb)
	for i := range terms {
		v, w := rng.Uint64()>>uint(rng.Intn(64)), rng.Int63n(2001)-1000
		terms[i] = Term{Powers: PowersOf(v), Weight: w}
		for j := range rows {
			k, sign := rows[j].At(terms[i].Powers, nb)
			want[j*nb+k] += w * sign
		}
	}
	got := make([]int64, len(rows)*nb)
	Fold(rows, got, terms)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("table %d counter %d: Fold %d, At %d", i/nb, i%nb, got[i], want[i])
		}
	}
}

func FuzzRowKernel(f *testing.F) {
	p := MersennePrime
	for _, v := range []uint64{0, 1, p - 1, p, p + 1, 2*p - 1, math.MaxUint64} {
		f.Add(uint64(1), v, uint32(2048))
	}
	f.Add(uint64(5), uint64(1)<<63, uint32(1<<31-1))
	// Inputs just below p and 2p.
	f.Add(uint64(3), p-64, uint32(2))
	f.Add(uint64(4), 2*p-64, uint32(1<<31-2))
	f.Fuzz(func(t *testing.T, seed, v uint64, nb uint32) {
		s := NewSeedStream(seed)
		h := NewPairwise(s)
		r := Row{H: h, Xi: NewFourWise(s)}
		checkRow(t, r, v, uint64(nb)+1)
	})
}
