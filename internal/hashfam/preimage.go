package hashfam

import "math/bits"

// Bucket preimages. A row's bucket for input v is y mod nb, where
// y = a·x + b mod p and x = reduce(v). Since a ≠ 0 the map x ↦ y is a
// bijection of the field, so the inputs whose bucket is k are exactly
//
//	x = a⁻¹·(k + nb·t − b) = c + s·t  (mod p),  0 ≤ t < T,
//
// with s = a⁻¹·nb, c = a⁻¹·(k − b) and T = ⌊(p − 1 − k)/nb⌋ + 1, the
// number of y < p congruent to k. The ones inside a span [lo, hi] are
// the returns of the rotation x ↦ x + s mod p to that span. leastHit
// finds the first in O(log p) steps. By the three-gap theorem (Slater)
// each later one is reached from the last by one of three steps, picked
// in O(1) from the hit's offset in the span, so listing the preimages
// costs one step per hit.

// Preimages lists, for one row's bucket hash and nb buckets, the inputs
// in one span [lo, hi] of the field by their bucket.
type Preimages struct {
	h          Pairwise
	ainv, s    uint64 // a⁻¹ and a⁻¹·nb
	nb, lo, hi uint64
	// The three-gap steps over the span's width w = hi − lo + 1: t1 is
	// the least t > 0 whose s·t moves x up by d1 < w, t2 the least that
	// moves it down by d2 < w. All four are zero when w = 1.
	t1, d1, t2, d2 uint64
}

// Preimages prepares the listing of [lo, hi], lo ≤ hi < p, by bucket out
// of nb, 1 ≤ nb < p. It costs one inversion of a by Fermat's little
// theorem and two leastHit searches. Its searches and Each's always
// find a t: s is nonzero and p prime, so s·t mod p takes every value
// for t < p.
func (r *Row) Preimages(nb, lo, hi uint64) Preimages {
	ainv := invmod(r.H.a)
	e := Preimages{h: r.H, ainv: ainv, s: mulmod(ainv, nb), nb: nb, lo: lo, hi: hi}
	if w := hi - lo + 1; w > 1 {
		e.t1, _ = leastHit(e.s, 0, 1, w-1, MersennePrime)
		e.t2, _ = leastHit(e.s, 0, MersennePrime-w+1, MersennePrime-1, MersennePrime)
		e.d1, e.d2 = mulmod(e.s, e.t1), MersennePrime-mulmod(e.s, e.t2)
	}
	return e
}

// Each calls visit(x) for every x in [lo, hi] whose bucket is k, k < nb,
// that is every x with H.Bucket(x, nb) = k, in increasing order of
// H.Hash(x).
func (e *Preimages) Each(k uint64, visit func(x uint64)) {
	c := mulmod(e.ainv, reduce(k+MersennePrime-e.h.b))
	t, _ := leastHit(e.s, c, e.lo, e.hi, MersennePrime)
	end := (MersennePrime-1-k)/e.nb + 1
	x, w := mulAdd(e.s, t, c), e.hi-e.lo+1
	for t < end {
		visit(x)
		if w == 1 {
			return // the next return to a one-point span is p steps on
		}
		switch u := x - e.lo; {
		case u < w-e.d1:
			t, x = t+e.t1, x+e.d1
		case u >= e.d2:
			t, x = t+e.t2, x-e.d2
		default: // d1 + d2 ≥ w, so x + d1 − d2 lands in the span
			t, x = t+e.t1+e.t2, x+e.d1-e.d2
		}
	}
}

// invmod returns a⁻¹ mod p for a ≠ 0 as a^(p−2) (Fermat).
func invmod(a uint64) uint64 {
	r := uint64(1)
	for n := MersennePrime - 2; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = mulmod(r, a)
		}
		a = mulmod(a, a)
	}
	return r
}

// leastHit returns the least t ≥ 0 with (c + s·t) mod m in [lo, hi], and
// whether one exists, for 1 ≤ m < 2^63, s, c < m and lo ≤ hi < m.
func leastHit(s, c, lo, hi, m uint64) (uint64, bool) {
	if lo <= c && c <= hi {
		return 0, true
	}
	// Shifting by −c maps [lo, hi] to one span of nonzero residues.
	if c < lo {
		return leastMultiple(s, lo-c, hi-c, m)
	}
	return leastMultiple(s, lo+m-c, hi+m-c, m)
}

// leastMultiple returns the least t ≥ 0 with s·t mod m in [lo, hi], and
// whether one exists, for m < 2^63, s < m and 1 ≤ lo ≤ hi < m. Each level
// either answers directly or recurses with modulus s ≤ m/2, so the depth
// is O(log m).
func leastMultiple(s, lo, hi, m uint64) (uint64, bool) {
	if s == 0 {
		return 0, false
	}
	if 2*s > m { // s·t ∈ [lo, hi] iff (m−s)·t ∈ [m−hi, m−lo], as lo ≥ 1
		s, lo, hi = m-s, m-hi, m-lo
	}
	if t := (lo + s - 1) / s; s*t <= hi {
		return t, true // reached before s·t wraps past m
	}
	// No multiple of s lies in [lo, hi], so lo mod s ≤ hi mod s, both in
	// [1, s). Some t has s·t − m·y in [lo, hi] iff (−m·y) mod s is in
	// [lo mod s, hi mod s], and the least such t grows with y.
	y, ok := leastMultiple((s-m%s)%s, lo%s, hi%s, s)
	if !ok {
		return 0, false
	}
	// t = ⌈(lo + m·y)/s⌉, below m + 1 since y < s.
	yh, yl := bits.Mul64(m, y)
	yl, carry := bits.Add64(yl, lo+s-1, 0)
	t, _ := bits.Div64(yh+carry, yl, s)
	return t, true
}
