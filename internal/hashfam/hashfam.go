// Package hashfam provides the limited-independence hash families that
// underlie every sketch in this repository: pairwise-independent bucket
// hashes and four-wise independent ±1 variables, both realized as
// Carter–Wegman polynomials over the Mersenne prime field GF(2^61 − 1).
//
// The constructions follow Alon, Matias & Szegedy (STOC 1996) and the
// standard practical realization used by streaming implementations: a
// degree-k polynomial with random coefficients evaluated with 128-bit
// intermediate arithmetic gives a (k+1)-wise independent hash, and the low
// bit of a four-wise independent value in [0, p) is a four-wise
// independent ±1 variable up to an O(2^−61) bias.
//
// Evaluation. Both families are polynomials in x = reduce(v), so a hash
// sketch, which evaluates d bucket hashes and d sign families at every
// value, computes the value's Powers (x, x² and x³ mod p) once and hands
// them to each table's Row. Per row the sign is a0 + a1·x + a2·x² + a3·x³:
// three 128-bit products and a0 summed without reduction, below 2^124
// because every term is below p² < 2^122. Two Mersenne folds bring that
// to at most p + 4 and one conditional subtract makes it canonical, the
// same residue Horner's rule gives, so the low bit, the sign, is the
// same. The bucket is a·x + b, below 2^122, folded once to below 2p,
// made canonical the same way, then taken % nb. Fold runs that loop over
// a chunk of inputs for every table of a sketch; Row.At evaluates one
// input, for the skim's exact test, point estimates and subjoins.
// Row.Preimages inverts the bucket hash: it lists the inputs in a span
// of the field whose bucket is k, one O(1) step per input after an
// O(log p) search for the first, so the skim visits only the hot
// buckets' preimages.
// The scalar Pairwise.Hash and FourWise.Hash, which agms and
// the benchmark's hash-family rung use, keep Horner's rule; tests hold
// the row kernel to them and both to math/big.
package hashfam

import "math/bits"

// MersennePrime is p = 2^61 − 1, the field modulus for all families.
const MersennePrime uint64 = (1 << 61) - 1

// reduce folds an arbitrary 64-bit value into [0, p).
func reduce(x uint64) uint64 {
	x = (x & MersennePrime) + (x >> 61)
	if x >= MersennePrime {
		x -= MersennePrime
	}
	return x
}

// mulmod returns a·b mod p for a, b < p using a 128-bit product and
// Mersenne folding. With a, b < 2^61 the product is below 2^122, so the
// high word is below 2^58 and (hi<<3 | lo>>61) cannot overflow.
func mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (lo & MersennePrime) + (hi<<3 | lo>>61)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// mulAdd returns a·x + c mod p for a, x, c < p using a 128-bit product
// and one Mersenne fold. The sum is at most (p−1)·p < 2^122, so the high
// word is below 2^58, (hi<<3 | lo>>61) cannot overflow, and the fold
// leaves at most 2p − 2: one conditional subtract makes it canonical.
func mulAdd(a, x, c uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	lo, carry := bits.Add64(lo, c, 0)
	hi += carry
	r := (lo & MersennePrime) + (hi<<3 | lo>>61)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// addmod returns a+b mod p for a, b < p.
func addmod(a, b uint64) uint64 {
	r := a + b
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// SeedStream derives an unbounded deterministic sequence of 64-bit seeds
// from one master seed using the splitmix64 generator. Every randomized
// component in the repository draws its coefficients from a SeedStream so
// that experiments are exactly reproducible from a single integer.
type SeedStream struct {
	state uint64
}

// NewSeedStream returns a stream seeded with the master seed.
func NewSeedStream(seed uint64) *SeedStream {
	return &SeedStream{state: seed}
}

// Next returns the next derived seed.
func (s *SeedStream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nextFieldElem draws a seed and reduces it into the field.
func (s *SeedStream) nextFieldElem() uint64 {
	return reduce(s.Next())
}

// nextNonZeroFieldElem draws a non-zero field element (needed for the
// leading coefficient of a polynomial so the degree is exact).
func (s *SeedStream) nextNonZeroFieldElem() uint64 {
	for {
		if v := s.nextFieldElem(); v != 0 {
			return v
		}
	}
}

// Pairwise is a pairwise-independent hash h(x) = (a·x + b) mod p with
// a ≠ 0. It is used to map stream elements to hash-table buckets.
type Pairwise struct {
	a, b uint64
}

// NewPairwise draws a pairwise hash from the stream.
func NewPairwise(s *SeedStream) Pairwise {
	return Pairwise{a: s.nextNonZeroFieldElem(), b: s.nextFieldElem()}
}

// Hash returns h(x) in [0, p).
func (h Pairwise) Hash(x uint64) uint64 {
	return addmod(mulmod(h.a, reduce(x)), h.b)
}

// Bucket maps x to one of nb buckets. The modulo bias is at most
// nb / 2^61 and is irrelevant at practical table sizes.
func (h Pairwise) Bucket(x uint64, nb int) int {
	return int(h.Hash(x) % uint64(nb))
}

// FourWise is a four-wise independent hash realized as a degree-3
// polynomial a3·x³ + a2·x² + a1·x + a0 mod p with a3 ≠ 0. Its Sign method
// yields the ξ ∈ {−1,+1} variables of AGMS atomic sketches.
type FourWise struct {
	a0, a1, a2, a3 uint64
}

// NewFourWise draws a four-wise hash from the stream.
func NewFourWise(s *SeedStream) FourWise {
	return FourWise{
		a0: s.nextFieldElem(),
		a1: s.nextFieldElem(),
		a2: s.nextFieldElem(),
		a3: s.nextNonZeroFieldElem(),
	}
}

// Hash evaluates the polynomial at x via Horner's rule, returning a value
// in [0, p).
func (f FourWise) Hash(x uint64) uint64 {
	xr := reduce(x)
	r := f.a3
	r = addmod(mulmod(r, xr), f.a2)
	r = addmod(mulmod(r, xr), f.a1)
	r = addmod(mulmod(r, xr), f.a0)
	return r
}

// Sign returns ξ(x) ∈ {−1, +1} from the low bit of the hash.
func (f FourWise) Sign(x uint64) int64 {
	return signOf(f.Hash(x))
}

func signOf(hash uint64) int64 {
	return int64(hash&1)<<1 - 1
}
