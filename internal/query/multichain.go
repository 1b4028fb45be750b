package query

import (
	"fmt"
	"math"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stats"
)

// MultiChain estimates the size of a chain join of any length
//
//	COUNT(R₀(a₁) ⋈ S₁(a₁,a₂) ⋈ S₂(a₂,a₃) ⋈ … ⋈ R_k(a_k))
//
// over k join attributes: k+1 streams, where the two end streams carry
// one attribute each and every interior stream carries a consecutive
// pair. Each cell of the s1 × s2 boosting array holds one atomic sketch
// per stream built from one ξ family per join attribute (Dobra et al.,
// SIGMOD 2002): the end sketches use ξ_1 (resp. ξ_k) and interior sketch
// i uses ξ_i·ξ_{i+1}, so the product of all k+1 atomic sketches is an
// unbiased chain-size estimator (every ξ appears exactly twice).
//
// As with all AGMS-style multi-join estimators, the variance grows with
// the chain length; the boosting array must be sized accordingly.
type MultiChain struct {
	attrs  int // k ≥ 1 join attributes → k+1 streams
	s1, s2 int
	// sketches[m][i] is stream m's atomic sketch in cell i.
	sketches [][]int64
	// xis[a][i] is attribute a's ξ family in cell i.
	xis [][]hashfam.FourWise
}

// NewMultiChain returns an empty chain estimator over `attrs` join
// attributes (attrs = 1 is a plain binary join; attrs = 2 is the
// two-join chain R(a) ⋈ S(a, b) ⋈ T(b) that ExactChain computes).
func NewMultiChain(attrs, s1, s2 int, seed uint64) (*MultiChain, error) {
	if attrs < 1 {
		return nil, fmt.Errorf("query: chain needs at least one join attribute, got %d", attrs)
	}
	if s1 <= 0 || s2 <= 0 {
		return nil, fmt.Errorf("query: chain dimensions must be positive, got s1=%d s2=%d", s1, s2)
	}
	ss := hashfam.NewSeedStream(seed)
	n := s1 * s2
	mc := &MultiChain{
		attrs:    attrs,
		s1:       s1,
		s2:       s2,
		sketches: make([][]int64, attrs+1),
		xis:      make([][]hashfam.FourWise, attrs),
	}
	for m := range mc.sketches {
		mc.sketches[m] = make([]int64, n)
	}
	for a := range mc.xis {
		fams := make([]hashfam.FourWise, n)
		for i := range fams {
			fams[i] = hashfam.NewFourWise(ss)
		}
		mc.xis[a] = fams
	}
	return mc, nil
}

// Streams returns the number of streams (attrs + 1).
func (c *MultiChain) Streams() int { return c.attrs + 1 }

// Words returns the synopsis size in counter words.
func (c *MultiChain) Words() int { return (c.attrs + 1) * c.s1 * c.s2 }

// UpdateEnd folds one element of an end stream: stream 0 (value is join
// attribute a₁) or stream attrs (value is a_k).
func (c *MultiChain) UpdateEnd(streamIdx int, value uint64, weight int64) error {
	switch streamIdx {
	case 0:
		for i := range c.sketches[0] {
			c.sketches[0][i] += weight * c.xis[0][i].Sign(value)
		}
	case c.attrs:
		last := c.attrs - 1
		for i := range c.sketches[c.attrs] {
			c.sketches[c.attrs][i] += weight * c.xis[last][i].Sign(value)
		}
	default:
		return fmt.Errorf("query: stream %d is not an end stream (0 or %d)", streamIdx, c.attrs)
	}
	return nil
}

// UpdateInterior folds one element of interior stream m ∈ [1, attrs−1]
// with join attribute values (left = a_m, right = a_{m+1}).
func (c *MultiChain) UpdateInterior(streamIdx int, left, right uint64, weight int64) error {
	if streamIdx < 1 || streamIdx > c.attrs-1 {
		return fmt.Errorf("query: stream %d is not interior (1..%d)", streamIdx, c.attrs-1)
	}
	l, r := c.xis[streamIdx-1], c.xis[streamIdx]
	sk := c.sketches[streamIdx]
	for i := range sk {
		sk[i] += weight * l[i].Sign(left) * r[i].Sign(right)
	}
	return nil
}

// Estimate returns the boosted chain-size estimate: the median over s2
// rows of the mean over s1 columns of the per-cell product of all
// stream sketches.
func (c *MultiChain) Estimate() int64 {
	rows := make([]float64, c.s2)
	for q := 0; q < c.s2; q++ {
		sum := 0.0
		for j := 0; j < c.s1; j++ {
			i := q*c.s1 + j
			prod := 1.0
			for m := range c.sketches {
				prod *= float64(c.sketches[m][i])
			}
			sum += prod
		}
		rows[q] = sum / float64(c.s1)
	}
	return int64(math.Round(stats.MedianFloat64(rows)))
}
