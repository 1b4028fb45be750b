// Package skimsketch estimates join-aggregate queries over data streams
// using skimmed sketches, reproducing "Processing Data-Stream Join
// Aggregates Using Skimmed Sketches" (Ganguly, Garofalakis, Rastogi;
// EDBT 2004).
//
// The central object is the Sketch — a hash-sketch synopsis of one stream
// that costs O(Tables) time per stream element and Tables×Buckets words
// of memory. Two sketches built with the same Config summarize two
// streams F and G; EstimateJoin then estimates COUNT(F ⋈ G) = Σ_v f_v·g_v
// by skimming the dense frequencies out of both sketches, joining the
// dense parts exactly, and joining the residual (sparse) parts via the
// sketches. SUM aggregates are COUNT queries over measure-weighted
// updates (use Update with the measure as the weight), and deletions are
// simply negative weights.
//
// Quick start:
//
//	cfg := skimsketch.Config{Tables: 7, Buckets: 1024, Seed: 42}
//	f, _ := skimsketch.New(cfg)
//	g, _ := skimsketch.New(cfg) // same cfg ⇒ valid join pair
//	for _, v := range streamF {
//		f.Update(v, +1)
//	}
//	for _, v := range streamG {
//		g.Update(v, +1)
//	}
//	est, _ := skimsketch.EstimateJoin(f, g, domain)
//	fmt.Println("COUNT(F ⋈ G) ≈", est.Total)
//
// The subpackages under internal/ hold the full implementation: the
// reference and dyadic-accelerated skimming procedures, the basic AGMS
// baseline, workload generators and the experiment harness reproducing
// the paper's evaluation.
package skimsketch

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/dyadic"
	"skimsketch/internal/stream"
)

// Config describes a sketch: Tables (d, the median-boosting dimension;
// use an odd value), Buckets (b, per-table), and Seed (shared by both
// sketches of a join pair).
type Config = core.Config

// Sketch is a hash-sketch synopsis of one update stream.
type Sketch = core.HashSketch

// Estimate is a decomposed join-size estimate; Total is Ĵ.
type Estimate = core.Estimate

// Options tunes EstimateJoin (skim thresholds, skim disable).
type Options = core.Options

// Update is one stream element (Value, signed Weight).
type Update = stream.Update

// Hierarchy is a dyadic stack of sketches supporting O(b·d·log m)
// dense-frequency extraction for very large domains.
type Hierarchy = dyadic.Hierarchy

// New returns an empty sketch for the configuration.
func New(cfg Config) (*Sketch, error) { return core.NewHashSketch(cfg) }

// EstimateJoin estimates COUNT(F ⋈ G) over the value domain [0, domain)
// with default skim thresholds. The sketches are not modified.
func EstimateJoin(f, g *Sketch, domain uint64) (Estimate, error) {
	return core.EstimateJoin(f, g, domain, nil)
}

// EstimateJoinOptions is EstimateJoin with explicit Options.
func EstimateJoinOptions(f, g *Sketch, domain uint64, opts Options) (Estimate, error) {
	return core.EstimateJoin(f, g, domain, &opts)
}

// NewHierarchy returns a dyadic hierarchy over the domain [0, 2^bits) for
// workloads whose domain is too large to scan at skim time.
func NewHierarchy(bits int, cfg Config) (*Hierarchy, error) {
	return dyadic.New(bits, cfg)
}

// JoinPair bundles the two sketches of one join query with their domain,
// the most convenient shape for application code.
type JoinPair struct {
	f, g   *Sketch
	domain uint64
}

// NewJoinPair builds a compatible pair of sketches over [0, domain).
func NewJoinPair(domain uint64, cfg Config) (*JoinPair, error) {
	if domain == 0 {
		return nil, fmt.Errorf("skimsketch: domain must be positive")
	}
	f, err := core.NewHashSketch(cfg)
	if err != nil {
		return nil, err
	}
	g, err := core.NewHashSketch(cfg)
	if err != nil {
		return nil, err
	}
	return &JoinPair{f: f, g: g, domain: domain}, nil
}

// UpdateF folds one element of stream F.
func (p *JoinPair) UpdateF(value uint64, weight int64) { p.f.Update(value, weight) }

// UpdateG folds one element of stream G.
func (p *JoinPair) UpdateG(value uint64, weight int64) { p.g.Update(value, weight) }

// F returns the F-side sketch (a stream.Sink).
func (p *JoinPair) F() *Sketch { return p.f }

// G returns the G-side sketch (a stream.Sink).
func (p *JoinPair) G() *Sketch { return p.g }

// Domain returns the value domain size.
func (p *JoinPair) Domain() uint64 { return p.domain }

// Words returns the total synopsis size in counter words.
func (p *JoinPair) Words() int { return p.f.Words() + p.g.Words() }

// Estimate runs the skimmed-sketch estimator on the current sketches.
func (p *JoinPair) Estimate() (Estimate, error) {
	return core.EstimateJoin(p.f, p.g, p.domain, nil)
}
