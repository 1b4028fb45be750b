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
	counters []int64       // row-major: counters[j*b + k] is bucket k of table j
	rows     []hashfam.Row // rows[j] holds h_j and ξ_j
	net      int64         // Σ weights: the net stream size n for insert-only streams
	gross    int64         // Σ |weights|: total update volume
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
	rows := make([]hashfam.Row, cfg.Tables)
	for j := range rows {
		h := hashfam.NewPairwise(ss) // h_j is drawn before ξ_j
		rows[j] = hashfam.Row{H: h, Xi: hashfam.NewFourWise(ss)}
	}
	return &HashSketch{cfg: cfg, counters: counters, rows: rows}
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
	s.UpdateBatch([]stream.Update{{Value: value, Weight: weight}})
}

// updateChunk is how many updates fold hashes per hashfam.Fold call.
// fold zeroes a chunk-sized stack buffer on every call, one-element
// Updates included, so it stays small; 16 updates already amortize the
// per-call and per-table set-up.
const updateChunk = 16

// combineMin is the batch length from which UpdateBatch folds each
// distinct value once. Below it the table's set-up eats most of what
// combining saves on a zipf(1.0) batch: a cluster shard's 170-update
// groups gain nothing (BenchmarkUpdateBatchShard), a 1024-update batch
// about 40% (BenchmarkUpdateBatchSketchd).
const combineMin = 512

// combineSpan is how many updates one combine table takes; a longer
// batch is combined span by span. The table has twice as many slots,
// so it stays at most half full. With the sums beside it, it takes
// 40 KiB of the caller's stack: a shard worker's run of a drained
// backlog, about 2,000 updates of one stream, fits one span.
const (
	combineBits  = 12
	combineSpan  = 1 << (combineBits - 1)
	combineProbe = 16                 // slots one value probes before it folds uncombined
	combineMul   = 0x9e3779b97f4a7c15 // slot = value·combineMul >> (64 − combineBits)
)

// UpdateBatch folds a whole batch of stream elements into the sketch. It
// is bit-for-bit equivalent to folding the elements one at a time (int64
// addition is exact, commutative and associative, so applying the batch
// table-by-table reorders only additions), and Update is its one-element
// call. A batch of combineMin updates or more folds each distinct value
// once with its weights summed: w₁·ξ + w₂·ξ = (w₁ + w₂)·ξ in wraparound
// arithmetic, and a sum of 0 adds nothing. The net and gross tallies
// always come from the original updates.
func (s *HashSketch) UpdateBatch(batch []stream.Update) {
	if len(batch) >= combineMin {
		s.foldCombined(batch)
	} else {
		s.fold(batch)
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

// fold adds weight·ξ_j(value) to bucket h_j(value) of every table for
// each update, leaving the net and gross tallies alone. UpdateBatch and
// Subtract both hash into the counters through it. It works
// chunk by chunk, table-major: each value's powers are computed once,
// then every table's row takes the whole chunk, so the writes go to one
// row at a time.
func (s *HashSketch) fold(batch []stream.Update) {
	var buf [updateChunk]hashfam.Term
	for len(batch) > 0 {
		terms := buf[:min(len(batch), updateChunk)]
		for i := range terms {
			terms[i] = hashfam.Term{Powers: hashfam.PowersOf(batch[i].Value), Weight: batch[i].Weight}
		}
		batch = batch[len(terms):]
		hashfam.Fold(s.rows, s.counters, terms)
	}
}

// foldCombined is fold with each distinct value of a span folded once,
// under the sum of its weights. Values are found in an open-addressing
// table of indexes into sums; a value that finds neither itself nor a
// free slot within combineProbe slots is folded on its own, so a batch
// built to collide costs no more than combineProbe probes per update.
func (s *HashSketch) foldCombined(batch []stream.Update) {
	for len(batch) > 0 {
		span := batch[:min(len(batch), combineSpan)]
		batch = batch[len(span):]
		var slots [1 << combineBits]uint16 // 1 + index into sums; 0 is free
		var sums [combineSpan]stream.Update
		n := 0
	next:
		for _, u := range span {
			h := (u.Value * combineMul) >> (64 - combineBits)
			for range combineProbe {
				i := slots[h]
				if i == 0 {
					slots[h] = uint16(n + 1)
					break
				}
				if sums[i-1].Value == u.Value {
					sums[i-1].Weight += u.Weight
					continue next
				}
				h = (h + 1) % uint64(len(slots))
			}
			sums[n] = u
			n++
		}
		k := 0
		for _, u := range sums[:n] {
			if u.Weight != 0 {
				sums[k] = u
				k++
			}
		}
		s.fold(sums[:k])
	}
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

// PointEstimate returns the boosted estimate of f_v: the median over
// tables of the per-table COUNTSKETCH estimates C[j][h_j(v)]·ξ_j(v)
// (Step 5 of SKIMDENSE). Its additive error is O(‖f‖₂/√b) with
// probability 1 − 2^{−Ω(d)}.
func (s *HashSketch) PointEstimate(v uint64) int64 {
	b := s.cfg.Buckets
	p := hashfam.PowersOf(v)
	ests := make([]int64, s.cfg.Tables)
	for j := range ests {
		k, sign := s.rows[j].At(p, uint64(b))
		ests[j] = s.counters[j*b+k] * sign
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
