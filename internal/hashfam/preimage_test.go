package hashfam

import (
	"slices"
	"testing"
)

// leastHit equals brute force for every s, c and lo ≤ hi over small
// moduli, prime and composite, including s = 0 and s sharing a factor
// with m, where some spans have no hit.
func TestLeastHitSmallModuli(t *testing.T) {
	for m := uint64(1); m <= 16; m++ {
		for s := uint64(0); s < m; s++ {
			for c := uint64(0); c < m; c++ {
				for lo := uint64(0); lo < m; lo++ {
					for hi := lo; hi < m; hi++ {
						want, wantOK := uint64(0), false
						for u := uint64(0); u < m; u++ {
							if y := (c + s*u) % m; lo <= y && y <= hi {
								want, wantOK = u, true
								break
							}
						}
						if got, ok := leastHit(s, c, lo, hi, m); got != want || ok != wantOK {
							t.Fatalf("leastHit(s %d, c %d, [%d, %d], m %d) = (%d, %v), brute force (%d, %v)",
								s, c, lo, hi, m, got, ok, want, wantOK)
						}
					}
				}
			}
		}
	}
}

// checkPreimages holds Each to brute force over [lo, hi]: it must visit
// exactly the x there with H.Bucket(x, nb) = k, once each, in increasing
// order of H.Hash(x).
func checkPreimages(t *testing.T, r Row, nb, k, lo, hi uint64) {
	t.Helper()
	var want []uint64
	for x := lo; x <= hi; x++ {
		if uint64(r.H.Bucket(x, int(nb))) == k {
			want = append(want, x)
		}
	}
	var got []uint64
	pre := r.Preimages(nb, lo, hi)
	pre.Each(k, func(x uint64) {
		if n := len(got); n > 0 && r.H.Hash(x) <= r.H.Hash(got[n-1]) {
			t.Fatalf("nb %d k %d [%d, %d]: %d visited after %d, out of hash order", nb, k, lo, hi, x, got[n-1])
		}
		got = append(got, x)
	})
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("nb %d k %d [%d, %d]: Each visits %d inputs %v, brute force %d %v",
			nb, k, lo, hi, len(got), got, len(want), want)
	}
}

// FuzzPreimages holds the enumerator to brute force for a random row,
// nb in [1, 4096], k < nb, and spans of up to 2^16 inputs that start at
// 0, end at p − 1, or lie anywhere in the field. Two more placements
// center the span on bucket k's last preimage, the input hashing to the
// largest y < p with y ≡ k (mod nb), or on the input one step of the
// rotation past it, whose y = k + nb·T wraps past p and has another
// bucket: a random span almost never holds either, and an off-by-one in
// the count T of preimages shows only there.
func FuzzPreimages(f *testing.F) {
	f.Add(uint64(1), uint16(2047), uint16(5), uint16(4095), uint8(0), uint64(0))
	f.Add(uint64(2), uint16(2047), uint16(2046), uint16(65535), uint8(1), uint64(0))
	f.Add(uint64(3), uint16(0), uint16(0), uint16(999), uint8(2), uint64(12345))
	f.Add(uint64(4), uint16(4095), uint16(17), uint16(0), uint8(2), uint64(1)<<60)
	f.Add(uint64(5), uint16(6), uint16(3), uint16(1), uint8(1), uint64(0))
	f.Add(uint64(6), uint16(2047), uint16(700), uint16(300), uint8(3), uint64(0))
	f.Add(uint64(7), uint16(2047), uint16(700), uint16(300), uint8(4), uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, nbRaw, kRaw, spanRaw uint16, where uint8, start uint64) {
		s := NewSeedStream(seed)
		r := Row{H: NewPairwise(s), Xi: NewFourWise(s)}
		nb := uint64(nbRaw%4096) + 1
		k := uint64(kRaw) % nb
		span := uint64(spanRaw) // hi − lo
		var lo uint64
		switch where % 5 {
		case 0:
			lo = 0
		case 1:
			lo = MersennePrime - 1 - span
		case 2:
			lo = reduce(start) % (MersennePrime - span)
		default:
			last := (MersennePrime - 1 - k) / nb // t of the last preimage
			y := k + nb*last
			if where%5 == 4 {
				y = k + nb*(last+1) - MersennePrime
			}
			x := mulmod(invmod(r.H.a), reduce(y+MersennePrime-r.H.b))
			lo = min(x-min(x, span/2), MersennePrime-1-span)
		}
		checkPreimages(t, r, nb, k, lo, lo+span)
	})
}
