package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
)

// sketchConfig is the synopsis shape every sketchd runs with
// (sketchdFlags); the reference must be built with the same one.
var sketchConfig = core.Config{Tables: 7, Buckets: 2048, Seed: 42}

// ledger counts acknowledgements per pool batch.
type ledger struct {
	p    *pool
	acks []atomic.Int64
}

func newLedger(p *pool) *ledger { return &ledger{p: p, acks: make([]atomic.Int64, len(p.batches))} }

func (l *ledger) ack(seq int64) { l.acks[seq%int64(len(l.acks))].Add(1) }

// reference is what a correct server holds after the acknowledged
// batches: per tenant, a fresh hash sketch and the exact frequencies of
// F and G. Sketches are linear, so batch i acknowledged c times is batch
// i applied once with every weight multiplied by c.
type reference struct {
	domain  uint64
	acked   int64
	tenants map[string]*tenantRef
}

type tenantRef struct {
	acked  int64
	f, g   *core.HashSketch
	ff, gf stream.FreqVector
}

func (l *ledger) reference() (*reference, error) {
	ref := &reference{domain: l.p.domain, tenants: make(map[string]*tenantRef)}
	for _, t := range l.p.tenants {
		f, err := core.NewHashSketch(sketchConfig)
		if err != nil {
			return nil, err
		}
		ref.tenants[t] = &tenantRef{f: f, g: core.MustNewHashSketch(sketchConfig), ff: stream.NewFreqVector(), gf: stream.NewFreqVector()}
	}
	for i := range l.acks {
		c := l.acks[i].Load()
		if c == 0 {
			continue
		}
		b := &l.p.batches[i]
		tr := ref.tenants[b.tenant]
		for _, g := range b.groups {
			scaled := make([]stream.Update, len(g.Updates))
			for j, u := range g.Updates {
				scaled[j] = stream.Update{Value: u.Value, Weight: u.Weight * c}
			}
			sk, fv := tr.f, tr.ff
			if g.Name == "G" {
				sk, fv = tr.g, tr.gf
			}
			sk.UpdateBatch(scaled)
			fv.UpdateBatch(scaled)
		}
		n := c * int64(b.size())
		tr.acked += n
		ref.acked += n
	}
	return ref, nil
}

// observation is what the servers reported after the final flush.
type observation struct {
	enqueued, applied int64 // summed over every data node
	tenants           map[string]tenantObs
}

type tenantObs struct {
	updates     int64  // the tenant's update counts, summed over streams and nodes
	left, right []byte // the SKHS blobs inside the /sketch payload
	estimate    int64  // the /answer estimate
	answered    int    // shards that answered; 0 on a single node
	of          int
}

// verify compares the observation with the reference and returns every
// mismatch. An empty result means the servers applied exactly the
// acknowledged updates, hold bit-identical synopses, and answer what
// the estimator computes on the reference.
func verify(ref *reference, obs *observation) []string {
	var bad []string
	if ref.acked == 0 {
		bad = append(bad, "no update was acknowledged")
	}
	if obs.enqueued != ref.acked || obs.applied != ref.acked {
		bad = append(bad, fmt.Sprintf("acked %d, server enqueued %d, applied %d", ref.acked, obs.enqueued, obs.applied))
	}
	names := make([]string, 0, len(ref.tenants))
	for t := range ref.tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		tr := ref.tenants[t]
		o, ok := obs.tenants[t]
		if !ok {
			bad = append(bad, fmt.Sprintf("tenant %q: not observed", t))
			continue
		}
		if o.updates != tr.acked {
			bad = append(bad, fmt.Sprintf("tenant %q: acked %d, server counted %d", t, tr.acked, o.updates))
		}
		for _, side := range []struct {
			name string
			got  []byte
			want *core.HashSketch
		}{{"F", o.left, tr.f}, {"G", o.right, tr.g}} {
			want, err := side.want.MarshalBinary()
			if err != nil {
				bad = append(bad, fmt.Sprintf("tenant %q: marshal reference %s: %v", t, side.name, err))
			} else if !bytes.Equal(side.got, want) {
				bad = append(bad, fmt.Sprintf("tenant %q: /sketch %s differs from the reference sketch", t, side.name))
			}
		}
		est, err := core.EstimateJoin(tr.f, tr.g, ref.domain, nil)
		if err != nil {
			bad = append(bad, fmt.Sprintf("tenant %q: reference estimate: %v", t, err))
		} else if o.estimate != est.Total {
			bad = append(bad, fmt.Sprintf("tenant %q: /answer estimate %d, reference %d", t, o.estimate, est.Total))
		}
		if o.of != o.answered {
			bad = append(bad, fmt.Sprintf("tenant %q: %d of %d shards answered", t, o.answered, o.of))
		}
	}
	return bad
}

// relErr is |estimate − exact| / exact for a tenant's join.
func (tr *tenantRef) relErr(estimate int64) float64 {
	exact := tr.ff.InnerProduct(tr.gf)
	if exact == 0 {
		return 0
	}
	d := float64(estimate - exact)
	if d < 0 {
		d = -d
	}
	return d / float64(exact)
}
