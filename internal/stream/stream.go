// Package stream defines the data-stream processing model of the paper:
// unordered sequences of insert/delete updates over an integer value
// domain, frequency vectors as the ground-truth state, and exact
// join-aggregate computation used to validate the sketch estimators.
package stream

import "fmt"

// Update is one stream element. Value is the joined attribute drawn from
// the domain [0, m). Weight is +1 for an insert, −1 for a delete, or an
// arbitrary signed measure for SUM-style aggregates (a weight-w update is
// semantically w repetitions of the element, matching Section 2.1 of the
// paper).
type Update struct {
	Value  uint64
	Weight int64
}

// Insert returns an insert update for v.
func Insert(v uint64) Update { return Update{Value: v, Weight: 1} }

// Delete returns a delete update for v.
func Delete(v uint64) Update { return Update{Value: v, Weight: -1} }

// Group is one stream's contiguous slice of a multi-stream batch: the
// unit in which wire protocols (JSON /update bodies, SKSP data frames)
// hand updates to the engine. Updates may alias a caller-owned buffer;
// ownership is whatever contract the consumer documents.
type Group struct {
	Name    string
	Updates []Update
}

// Sink consumes stream updates. Every synopsis in the repository
// implements Sink, so any generator can feed any summary.
type Sink interface {
	// Update applies one stream element.
	Update(value uint64, weight int64)
}

// Apply feeds every update to each sink in order.
func Apply(updates []Update, sinks ...Sink) {
	for _, u := range updates {
		for _, s := range sinks {
			s.Update(u.Value, u.Weight)
		}
	}
}

// FreqVector is the exact (net) frequency vector of a stream: value →
// accumulated weight. It is the ground truth against which estimators are
// evaluated, and also serves as the carrier for skimmed dense frequencies.
type FreqVector map[uint64]int64

// NewFreqVector returns an empty frequency vector.
func NewFreqVector() FreqVector { return make(FreqVector) }

// Update implements Sink; zero entries are removed so that the vector's
// support always reflects the net stream.
func (f FreqVector) Update(value uint64, weight int64) {
	n := f[value] + weight
	if n == 0 {
		delete(f, value)
	} else {
		f[value] = n
	}
}

// UpdateBatch is Update over a batch, in order.
func (f FreqVector) UpdateBatch(batch []Update) {
	for _, u := range batch {
		f.Update(u.Value, u.Weight)
	}
}

// Get returns the frequency of v (0 if absent).
func (f FreqVector) Get(v uint64) int64 { return f[v] }

// SelfJoinSize returns the second frequency moment F2 = Σ f_v², the size
// of the self-join COUNT(F ⋈ F).
func (f FreqVector) SelfJoinSize() int64 {
	var s int64
	for _, w := range f {
		s += w * w
	}
	return s
}

// InnerProduct returns Σ f_v·g_v = COUNT(F ⋈ G), iterating over the
// smaller support.
func (f FreqVector) InnerProduct(g FreqVector) int64 {
	if len(g) < len(f) {
		f, g = g, f
	}
	var s int64
	for v, w := range f {
		if gw, ok := g[v]; ok {
			s += w * gw
		}
	}
	return s
}

// Validate checks that every update's value lies in [0, domain) and
// returns a descriptive error otherwise.
func Validate(updates []Update, domain uint64) error {
	for i, u := range updates {
		if u.Value >= domain {
			return fmt.Errorf("stream: update %d has value %d outside domain [0,%d)", i, u.Value, domain)
		}
	}
	return nil
}
