package hashfam

import "math/bits"

// The row kernel: a hash sketch's per-table evaluation from shared
// powers (see the package doc, Evaluation).

// Powers holds one input's powers in the field: x = reduce(v), x² and x³
// mod p. Both families are polynomials in x, so one Powers serves every
// bucket hash and sign family evaluated at v.
type Powers struct {
	x1, x2, x3 uint64
}

// PowersOf reduces v into the field and squares and cubes it.
func PowersOf(v uint64) Powers {
	x := reduce(v)
	x2 := mulmod(x, x)
	return Powers{x1: x, x2: x2, x3: mulmod(x2, x)}
}

// Row is one table of a hash sketch: its bucket hash h and its sign
// family ξ.
type Row struct {
	H  Pairwise
	Xi FourWise
}

// At returns h(v) mod nb and ξ(v) for the input v whose powers are p:
// exactly H.Bucket(v, nb) and Xi.Sign(v).
func (r *Row) At(p Powers, nb uint64) (bucket int, sign int64) {
	return int(mulAdd(r.H.a, p.x1, r.H.b) % nb), signOf(reduce124(r.Xi.sum(p)))
}

// Term is one weighted input: the powers of its value and its weight.
type Term struct {
	Powers
	Weight int64
}

// Fold adds the terms into a sketch's counters, table by table: with
// nb = len(counters)/len(rows) buckets per table, each term of input v
// adds Weight·ξ_j(v) to counters[j·nb + h_j(v) mod nb] for every row j,
// the bucket and sign At gives. It is a sketch update's inner loop, and
// everything it calls inlines.
func Fold(rows []Row, counters []int64, terms []Term) {
	nb := len(counters) / len(rows)
	for j := range rows {
		h, xi := rows[j].H, rows[j].Xi
		row := counters[j*nb : (j+1)*nb]
		for _, t := range terms {
			k := mulAdd(h.a, t.x1, h.b) % uint64(len(row))
			row[k] += t.Weight * signOf(reduce124(xi.sum(t.Powers)))
		}
	}
}

// sum returns a0 + a1·x + a2·x² + a3·x³ unreduced, as a 128-bit hi:lo.
// Every coefficient and power is below p, so the sum is at most
// 3(p−1)² + p − 1 < 2^124.
func (f FourWise) sum(p Powers) (hi, lo uint64) {
	hi, lo = bits.Mul64(f.a1, p.x1)
	h, l := bits.Mul64(f.a2, p.x2)
	lo, c := bits.Add64(lo, l, 0)
	hi += h + c
	h, l = bits.Mul64(f.a3, p.x3)
	lo, c = bits.Add64(lo, l, 0)
	hi += h + c
	lo, c = bits.Add64(lo, f.a0, 0)
	return hi + c, lo
}

// reduce124 returns hi:lo mod p for a value below 2^124. The first fold
// leaves less than 2^61 + 2^63, the second at most p + 4, and one
// conditional subtract makes that canonical.
func reduce124(hi, lo uint64) uint64 {
	r := (lo & MersennePrime) + (hi<<3 | lo>>61)
	r = (r & MersennePrime) + (r >> 61)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}
