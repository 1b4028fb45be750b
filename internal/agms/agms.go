// Package agms implements the basic sketching method of Alon, Matias &
// Szegedy (STOC 1996) and Alon, Gibbons, Matias & Szegedy (PODS 1999):
// arrays of "tug-of-war" atomic sketches with averaging/median boosting.
// It is the paper's primary baseline (procedures ESTSJSIZE and
// ESTJOINSIZE of Section 2.2) and also a substrate the skimmed-sketch
// analysis is phrased against.
//
// A Sketch holds an s1 × s2 array of atomic sketches. Each atomic sketch
// is the random linear projection X = Σ_v f_v·ξ(v) of the stream's
// frequency vector with a four-wise independent ±1 family ξ. Averaging s1
// iid copies shrinks variance; the median of s2 averages boosts
// confidence. Every update touches all s1·s2 counters — the per-element
// cost the skimmed-sketch algorithm eliminates.
//
// Two sketches built with New using the same (s1, s2, seed) draw identical
// ξ families and therefore form a valid pair for join estimation, since
// E[X_F·X_G] = Σ_v f_v·g_v requires the projections to share ξ.
package agms

import (
	"fmt"
	"math"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stats"
)

// Sketch is an s1 × s2 array of AGMS atomic sketches.
type Sketch struct {
	s1, s2   int
	seed     uint64
	counters []int64            // row-major: counters[q*s1+j] for row q, column j
	xis      []hashfam.FourWise // one ξ family per atomic sketch, same layout
}

// New returns an empty sketch with s1 averaging copies and s2 median
// copies, with all ξ families derived deterministically from seed.
func New(s1, s2 int, seed uint64) (*Sketch, error) {
	if s1 <= 0 || s2 <= 0 {
		return nil, fmt.Errorf("agms: sketch dimensions must be positive, got s1=%d s2=%d", s1, s2)
	}
	ss := hashfam.NewSeedStream(seed)
	n := s1 * s2
	xis := make([]hashfam.FourWise, n)
	for i := range xis {
		xis[i] = hashfam.NewFourWise(ss)
	}
	return &Sketch{
		s1:       s1,
		s2:       s2,
		seed:     seed,
		counters: make([]int64, n),
		xis:      xis,
	}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(s1, s2 int, seed uint64) *Sketch {
	s, err := New(s1, s2, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Update folds one stream element into every atomic sketch. It implements
// stream.Sink. A negative weight is a delete; an arbitrary weight is a
// weighted (SUM-semantics) update.
func (s *Sketch) Update(value uint64, weight int64) {
	for i := range s.counters {
		s.counters[i] += weight * s.xis[i].Sign(value)
	}
}

// Words returns the synopsis size in counter words, the unit used for
// space accounting in the experiments.
func (s *Sketch) Words() int { return s.s1 * s.s2 }

// Compatible reports whether two sketches share dimensions and ξ families
// and can therefore be joined.
func (s *Sketch) Compatible(o *Sketch) bool {
	return s.s1 == o.s1 && s.s2 == o.s2 && s.seed == o.seed
}

// JoinEstimate implements ESTJOINSIZE: the estimate of COUNT(F ⋈ G) as
// the median over rows of the mean over columns of the products of
// corresponding atomic sketches. The sketches must be a pair (same
// dimensions and seed).
func JoinEstimate(f, g *Sketch) (int64, error) {
	if !f.Compatible(g) {
		return 0, fmt.Errorf("agms: sketches are not a pair (dims %dx%d/%dx%d, seeds %d/%d)",
			f.s1, f.s2, g.s1, g.s2, f.seed, g.seed)
	}
	rows := make([]float64, f.s2)
	for q := 0; q < f.s2; q++ {
		sum := 0.0
		for j := 0; j < f.s1; j++ {
			sum += float64(f.counters[q*f.s1+j]) * float64(g.counters[q*f.s1+j])
		}
		rows[q] = sum / float64(f.s1)
	}
	return int64(math.Round(stats.MedianFloat64(rows))), nil
}
