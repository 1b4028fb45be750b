package main

import (
	"encoding/binary"
	"strings"
	"testing"

	"skimsketch/internal/engine"
)

// engineObservation plays a correct server: an in-process engine with
// sketchd's pipeline settings applies batch i applied[i] times, and the
// result is read back the way the gate reads a server.
func engineObservation(t *testing.T, p *pool, applied []int64) *observation {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: sketchConfig})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopIngest()
	for _, tn := range p.tenants {
		ten := eng.Tenant(tenantName(tn))
		for _, s := range []string{"F", "G"} {
			if err := ten.DeclareStream(s, p.domain); err != nil {
				t.Fatal(err)
			}
		}
		if err := ten.RegisterQuery(engine.QuerySpec{Name: "q", Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range applied {
		b := &p.batches[i]
		for ; c > 0; c-- {
			if err := eng.Tenant(tenantName(b.tenant)).IngestGroups(b.groups, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Flush()
	ist := eng.IngestStats()
	obs := &observation{enqueued: ist.UpdatesEnqueued, applied: ist.UpdatesApplied, tenants: map[string]tenantObs{}}
	for _, tn := range p.tenants {
		ten := eng.Tenant(tenantName(tn))
		var o tenantObs
		for _, n := range ten.Stats().UpdateCounts {
			o.updates += n
		}
		qs, err := ten.QuerySketches("q")
		if err != nil {
			t.Fatal(err)
		}
		if o.left, err = qs.Left.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if o.right, err = qs.Right.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		ans, err := ten.Answer("q")
		if err != nil {
			t.Fatal(err)
		}
		o.estimate = ans.Estimate
		obs.tenants[tn] = o
	}
	return obs
}

func TestGate(t *testing.T) {
	p, err := genPool(7, 1<<10, []string{"t0", "t1"}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger(p)
	acked := make([]int64, len(p.batches))
	for i := range acked {
		acked[i] = int64(i % 3) // some batches never acked, some twice
		led.acks[i].Store(acked[i])
	}
	ref, err := led.reference()
	if err != nil {
		t.Fatal(err)
	}
	const lost = 4 // acknowledged once, by acked[i] = i % 3
	tenant := p.batches[lost].tenant
	dropped := append([]int64(nil), acked...)
	dropped[lost]--

	for _, tc := range []struct {
		name   string
		serve  []int64
		mutate func(*observation)
		want   string // a substring of some reported mismatch; "" means none
	}{
		{name: "exact", serve: acked},
		{name: "one counter off", serve: acked, want: "/sketch F differs", mutate: func(o *observation) {
			to := o.tenants[tenant]
			blob := append([]byte(nil), to.left...)
			// SKHS: a 40-byte header, then little-endian i64 counters.
			binary.LittleEndian.PutUint64(blob[40:], binary.LittleEndian.Uint64(blob[40:])+1)
			to.left = blob
			o.tenants[tenant] = to
		}},
		{name: "dropped batch", serve: dropped, want: "applied"},
		{name: "dropped batch behind correct counts", serve: dropped, want: "differs from the reference", mutate: func(o *observation) {
			n := int64(p.batches[lost].size())
			o.enqueued += n
			o.applied += n
			to := o.tenants[tenant]
			to.updates += n
			o.tenants[tenant] = to
		}},
		{name: "nothing applied", serve: acked, want: "applied 0", mutate: func(o *observation) { o.applied = 0 }},
		{name: "degraded cluster answer", serve: acked, want: "2 of 3 shards", mutate: func(o *observation) {
			to := o.tenants[tenant]
			to.answered, to.of = 2, 3
			o.tenants[tenant] = to
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := engineObservation(t, p, tc.serve)
			if tc.mutate != nil {
				tc.mutate(obs)
			}
			bad := verify(ref, obs)
			if tc.want == "" {
				if len(bad) != 0 {
					t.Fatalf("exact server rejected: %q", bad)
				}
				return
			}
			if !strings.Contains(strings.Join(bad, "\n"), tc.want) {
				t.Fatalf("mismatches %q do not report %q", bad, tc.want)
			}
		})
	}
}

func TestGateRejectsEmptyRun(t *testing.T) {
	p, err := genPool(7, 1<<10, []string{""}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newLedger(p).reference()
	if err != nil {
		t.Fatal(err)
	}
	if bad := verify(ref, engineObservation(t, p, make([]int64, len(p.batches)))); len(bad) == 0 {
		t.Fatal("a run that acknowledged nothing passed the gate")
	}
}
