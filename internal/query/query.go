// Package query lifts the sketch machinery to the query classes the
// paper claims beyond plain binary-join COUNT (Sections 1–2):
//
//   - SUM aggregates: SUM_M(F ⋈ G) is a COUNT over a derived stream in
//     which each G element is repeated "measure" times, i.e. a weighted
//     sketch update (SumEstimator);
//   - selection predicates: elements failing the predicate are dropped
//     before reaching the synopsis (Filtered).
package query

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
)

// SumEstimator estimates SUM_M(F ⋈ G) = Σ_v f_v · m_v, where m_v is the
// total measure of G elements with join value v. F-side elements are
// counted; G-side elements carry their measure as the update weight.
type SumEstimator struct {
	f, g   *core.HashSketch
	domain uint64
}

// NewSumEstimator builds the paired sketches over [0, domain).
func NewSumEstimator(domain uint64, cfg core.Config) (*SumEstimator, error) {
	if domain == 0 {
		return nil, fmt.Errorf("query: domain must be positive")
	}
	f, err := core.NewHashSketch(cfg)
	if err != nil {
		return nil, err
	}
	g, err := core.NewHashSketch(cfg)
	if err != nil {
		return nil, err
	}
	return &SumEstimator{f: f, g: g, domain: domain}, nil
}

// UpdateFact records one F-side element (count semantics).
func (s *SumEstimator) UpdateFact(value uint64) { s.f.Update(value, 1) }

// UpdateMeasure records one G-side element with its measure; deleting an
// element re-issues it with the negated measure.
func (s *SumEstimator) UpdateMeasure(value uint64, measure int64) { s.g.Update(value, measure) }

// Estimate runs the skimmed-sketch estimator on the weighted sketches.
func (s *SumEstimator) Estimate() (core.Estimate, error) {
	return core.EstimateJoin(s.f, s.g, s.domain, nil)
}

// ExactSum computes the reference answer from raw updates: facts carry
// join values, measures carry (value, measure) pairs.
func ExactSum(facts []stream.Update, measures []stream.Update) int64 {
	f, m := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(facts, f)
	stream.Apply(measures, m)
	return f.InnerProduct(m)
}

// Filtered wraps a sink with a selection predicate, implementing the
// paper's predicate pushdown: "we simply drop from the streams, elements
// that do not satisfy the predicates (prior to updating the synopses)".
type Filtered struct {
	Sink stream.Sink
	Pred func(value uint64, weight int64) bool
}

// Update implements stream.Sink.
func (f Filtered) Update(value uint64, weight int64) {
	if f.Pred(value, weight) {
		f.Sink.Update(value, weight)
	}
}
