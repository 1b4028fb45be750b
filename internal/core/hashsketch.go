// Package core implements the paper's contribution: the hash-sketch data
// structure (Section 4.1), the SKIMDENSE dense-frequency extraction
// procedure (Section 4.2, Figure 3), and the ESTSKIMJOINSIZE skimmed-
// sketch join-size estimator (Section 4.3, Figure 4).
//
// A HashSketch is an array of d hash tables with b buckets each. Each
// bucket holds a single AGMS atomic-sketch counter over the stream
// elements that hash into it, so processing one stream element updates
// exactly one counter per table — O(d) work, versus O(s1·s2) for basic
// AGMS sketching at comparable space. With d = O(log 1/δ) this is the
// "guaranteed logarithmic processing time per stream element" of the
// paper.
//
// Two hash sketches participating in a join must be built from the same
// Config (identical d, b and seed) so that they share the bucket hashes
// h_j and the ±1 families ξ_j; sketches built from equal Configs are
// guaranteed to do so because all randomness is derived deterministically
// from the seed.
package core

import (
	"fmt"
	"math"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
)

// Config describes a hash sketch.
type Config struct {
	// Tables is d, the number of hash tables. Estimates are medians over
	// tables, so an odd value is recommended (and what the paper's
	// s2 ∈ {11, ..., 59} grid uses).
	Tables int
	// Buckets is b, the number of buckets per table.
	Buckets int
	// Seed derives every hash family. Sketches that will be joined must
	// share it.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Tables <= 0 {
		return fmt.Errorf("core: Tables must be positive, got %d", c.Tables)
	}
	if c.Buckets <= 0 {
		return fmt.Errorf("core: Buckets must be positive, got %d", c.Buckets)
	}
	return nil
}

// HashSketch is the d × b counter structure of Section 4.1.
type HashSketch struct {
	cfg      Config
	counters []int64 // row-major: counters[j*b + k] is bucket k of table j
	hs       []hashfam.Pairwise
	xs       []hashfam.FourWise
	net      int64 // Σ weights: the net stream size n for insert-only streams
	gross    int64 // Σ |weights|: total update volume
}

// NewHashSketch returns an empty hash sketch for the configuration.
func NewHashSketch(cfg Config) (*HashSketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return withCounters(cfg, make([]int64, cfg.Tables*cfg.Buckets)), nil
}

// withCounters builds the hash families for a valid cfg around a
// tables·buckets counter array.
func withCounters(cfg Config, counters []int64) *HashSketch {
	ss := hashfam.NewSeedStream(cfg.Seed)
	hs := make([]hashfam.Pairwise, cfg.Tables)
	xs := make([]hashfam.FourWise, cfg.Tables)
	for j := 0; j < cfg.Tables; j++ {
		hs[j] = hashfam.NewPairwise(ss)
		xs[j] = hashfam.NewFourWise(ss)
	}
	return &HashSketch{cfg: cfg, counters: counters, hs: hs, xs: xs}
}

// MustNewHashSketch is NewHashSketch for static configurations.
func MustNewHashSketch(cfg Config) *HashSketch {
	s, err := NewHashSketch(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Update folds one stream element into the sketch, touching one counter
// per table. It implements stream.Sink. Negative weights are deletes;
// arbitrary weights carry SUM semantics.
func (s *HashSketch) Update(value uint64, weight int64) {
	b := s.cfg.Buckets
	for j := 0; j < s.cfg.Tables; j++ {
		k := s.hs[j].Bucket(value, b)
		s.counters[j*b+k] += weight * s.xs[j].Sign(value)
	}
	s.net += weight
	if weight < 0 {
		s.gross -= weight
	} else {
		s.gross += weight
	}
}

// UpdateBatch folds a whole batch of stream elements into the sketch. It
// is bit-for-bit equivalent to calling Update once per element (int64
// addition is exact, commutative and associative, so applying the batch
// table-by-table reorders only additions) but amortizes the per-update
// overhead: the hash families and the table's counter row are hoisted out
// of the inner loop, and the net/gross tallies are folded once per batch.
// It implements stream.BatchSink.
func (s *HashSketch) UpdateBatch(batch []stream.Update) {
	b := s.cfg.Buckets
	for j := 0; j < s.cfg.Tables; j++ {
		h, x := s.hs[j], s.xs[j]
		row := s.counters[j*b : (j+1)*b]
		for _, u := range batch {
			row[h.Bucket(u.Value, b)] += u.Weight * x.Sign(u.Value)
		}
	}
	var net, gross int64
	for _, u := range batch {
		net += u.Weight
		if u.Weight < 0 {
			gross -= u.Weight
		} else {
			gross += u.Weight
		}
	}
	s.net += net
	s.gross += gross
}

// Config returns the sketch configuration.
func (s *HashSketch) Config() Config { return s.cfg }

// Words returns the synopsis size in counter words (d·b), the unit used
// for space accounting in the experiments.
func (s *HashSketch) Words() int { return s.cfg.Tables * s.cfg.Buckets }

// NetCount returns Σ weights, i.e. the net stream size n for insert-only
// streams.
func (s *HashSketch) NetCount() int64 { return s.net }

// GrossCount returns Σ |weights|, the total update volume.
func (s *HashSketch) GrossCount() int64 { return s.gross }

// Compatible reports whether two sketches share a configuration (and
// hence hash families) and may be joined or combined.
func (s *HashSketch) Compatible(o *HashSketch) bool { return s.cfg == o.cfg }

// PointEstimateTable returns table j's estimate of f_v, the product
// C[j][h_j(v)]·ξ_j(v) of the COUNTSKETCH point estimator.
func (s *HashSketch) PointEstimateTable(j int, v uint64) int64 {
	k := s.hs[j].Bucket(v, s.cfg.Buckets)
	return s.counters[j*s.cfg.Buckets+k] * s.xs[j].Sign(v)
}

// PointEstimate returns the boosted estimate of f_v: the median over
// tables of the per-table estimates (Step 5 of SKIMDENSE). Its additive
// error is O(‖f‖₂/√b) with probability 1 − 2^{−Ω(d)}.
func (s *HashSketch) PointEstimate(v uint64) int64 {
	ests := make([]int64, s.cfg.Tables)
	for j := range ests {
		ests[j] = s.PointEstimateTable(j, v)
	}
	return stats.MedianInt64(ests)
}

// SelfJoinEstimate estimates F2 = Σ f_v² as the median over tables of the
// per-table sum of squared bucket counters. (Splitting the domain across
// buckets plays the variance-reduction role that averaging s1 copies
// plays in basic AGMS.)
func (s *HashSketch) SelfJoinEstimate() int64 {
	b := s.cfg.Buckets
	rows := make([]int64, s.cfg.Tables)
	for j := 0; j < s.cfg.Tables; j++ {
		var sum int64
		for k := 0; k < b; k++ {
			c := s.counters[j*b+k]
			sum += c * c
		}
		rows[j] = sum
	}
	return stats.MedianInt64(rows)
}

// DefaultSkimThreshold returns the extraction threshold the estimator
// uses when none is supplied: T = ⌈n/√b⌉ with n the net stream size,
// the Θ(n/√b) choice of Sections 3–4 under which every residual
// frequency is O(n/√b) with high probability.
func (s *HashSketch) DefaultSkimThreshold() int64 {
	n := s.net
	if n < 0 {
		n = -n
	}
	t := int64(math.Ceil(float64(n) / math.Sqrt(float64(s.cfg.Buckets))))
	if t < 1 {
		t = 1
	}
	return t
}

// Clone returns a deep copy (used so that estimation-time skimming never
// mutates the maintained synopsis).
func (s *HashSketch) Clone() *HashSketch {
	c := *s
	c.counters = make([]int64, len(s.counters))
	copy(c.counters, s.counters)
	return &c
}

// Combine adds o into s (sketch linearity): the result summarizes the
// concatenation of the two input streams.
func (s *HashSketch) Combine(o *HashSketch) error {
	if !s.Compatible(o) {
		return fmt.Errorf("core: cannot combine sketches with different configs (%+v vs %+v)", s.cfg, o.cfg)
	}
	for i := range s.counters {
		s.counters[i] += o.counters[i]
	}
	s.net += o.net
	s.gross += o.gross
	return nil
}

// Reset zeroes the counters and counts, keeping the hash families.
func (s *HashSketch) Reset() {
	for i := range s.counters {
		s.counters[i] = 0
	}
	s.net, s.gross = 0, 0
}

// Counter exposes the raw counter of bucket k in table j for tests and
// diagnostics.
func (s *HashSketch) Counter(j, k int) int64 {
	return s.counters[j*s.cfg.Buckets+k]
}

// bucketOf returns h_j(v); it is used by the skimming and subjoin code.
func (s *HashSketch) bucketOf(j int, v uint64) int {
	return s.hs[j].Bucket(v, s.cfg.Buckets)
}

// signOf returns ξ_j(v).
func (s *HashSketch) signOf(j int, v uint64) int64 {
	return s.xs[j].Sign(v)
}
