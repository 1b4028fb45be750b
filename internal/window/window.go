// Package window extends the sketch machinery to sliding-window join
// aggregates: COUNT(F_W ⋈ G_W) where each stream is restricted to its
// most recent elements. The paper handles landmark (whole-stream)
// queries; windows are the natural deployment variant (cf. Datar et al.,
// SODA 2002, cited as [12]) and fall out of sketch linearity: the window
// is tiled into buckets of consecutive elements, each bucket gets its own
// hash sketch, expired buckets are dropped whole, and a query combines
// the live buckets into one sketch.
//
// The window is therefore honoured at bucket granularity: a query covers
// between W − W/B and W of the most recent elements.
package window

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
)

// Window summarizes the most recent elements of one stream.
type Window struct {
	cfg       core.Config
	bucketCap int64 // elements per bucket
	buckets   []*core.HashSketch
	cur       int   // index of the bucket receiving updates
	curCount  int64 // elements in the current bucket
	live      int   // number of full buckets currently retained
	total     int64 // elements ever seen
}

// New returns a window of windowLen elements tiled into numBuckets
// buckets (windowLen must divide evenly). Two windows built with equal
// arguments form a valid join pair.
func New(windowLen int64, numBuckets int, cfg core.Config) (*Window, error) {
	if numBuckets <= 0 {
		return nil, fmt.Errorf("window: numBuckets must be positive, got %d", numBuckets)
	}
	if windowLen <= 0 || windowLen%int64(numBuckets) != 0 {
		return nil, fmt.Errorf("window: windowLen %d must be a positive multiple of numBuckets %d", windowLen, numBuckets)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buckets := make([]*core.HashSketch, numBuckets)
	for i := range buckets {
		sk, err := core.NewHashSketch(cfg)
		if err != nil {
			return nil, err
		}
		buckets[i] = sk
	}
	return &Window{cfg: cfg, bucketCap: windowLen / int64(numBuckets), buckets: buckets}, nil
}

// MustNew is New for static configurations.
func MustNew(windowLen int64, numBuckets int, cfg core.Config) *Window {
	w, err := New(windowLen, numBuckets, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// Update folds one stream element into the current bucket, rotating (and
// expiring the oldest bucket) when the bucket fills. It implements
// stream.Sink. Deletes count as elements for window-position purposes,
// matching the "sequence of updates" window model.
func (w *Window) Update(value uint64, weight int64) {
	w.UpdateBatch([]stream.Update{{Value: value, Weight: weight}})
}

// UpdateBatch folds a whole batch, splitting it along bucket boundaries
// so each piece can use the sketch's batched update; rotation and expiry
// happen exactly where one Update at a time would trigger them.
func (w *Window) UpdateBatch(batch []stream.Update) {
	for len(batch) > 0 {
		n := w.bucketCap - w.curCount
		if n > int64(len(batch)) {
			n = int64(len(batch))
		}
		w.buckets[w.cur].UpdateBatch(batch[:n])
		w.curCount += n
		w.total += n
		if w.curCount == w.bucketCap {
			w.cur = (w.cur + 1) % len(w.buckets)
			w.buckets[w.cur].Reset() // expire the oldest bucket
			w.curCount = 0
			if w.live < len(w.buckets)-1 {
				w.live++
			}
		}
		batch = batch[n:]
	}
}

// Combined returns one sketch summarizing every retained element (the
// live full buckets plus the partial current bucket).
func (w *Window) Combined() *core.HashSketch {
	out := core.MustNewHashSketch(w.cfg)
	for _, b := range w.buckets {
		// Reset buckets are zero; combining them is a harmless no-op.
		if err := out.Combine(b); err != nil {
			panic(err) // unreachable: all buckets share cfg
		}
	}
	return out
}

// Words returns the synopsis size in counter words across buckets.
func (w *Window) Words() int { return len(w.buckets) * w.cfg.Tables * w.cfg.Buckets }

// Fits reports whether w has the shape New(windowLen, numBuckets, cfg)
// builds.
func (w *Window) Fits(windowLen int64, numBuckets int, cfg core.Config) bool {
	return w.cfg == cfg && len(w.buckets) == numBuckets && w.bucketCap*int64(numBuckets) == windowLen
}

// Compatible reports whether two windows can be joined.
func (w *Window) Compatible(o *Window) bool {
	return w.cfg == o.cfg && w.bucketCap == o.bucketCap && len(w.buckets) == len(o.buckets)
}
