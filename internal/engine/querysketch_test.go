package engine

import (
	"errors"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/stream"
)

// newSketchTestTenant returns the default tenant of a fresh engine with
// streams F, G and query q = COUNT(F join G).
func newSketchTestTenant(t *testing.T) *Tenant {
	t.Helper()
	tn := startEngine(t, Options{SketchConfig: core.Config{Tables: 5, Buckets: 128, Seed: 11}},
		IngestConfig{Workers: 2, BatchSize: 8, QueueDepth: 4}).Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	return tn
}

func blob(t *testing.T, sk *core.HashSketch) string {
	t.Helper()
	b, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestQuerySketchesSnapshotIsPrivate(t *testing.T) {
	tn := newSketchTestTenant(t)
	for v := uint64(0); v < 100; v++ {
		update(t, tn, "F", v, 1)
		update(t, tn, "G", v%10, 1)
	}
	qs, err := tn.QuerySketches("q")
	if err != nil {
		t.Fatal(err)
	}
	if qs.Agg != Count || qs.Domain != 1024 || qs.Query != "q" {
		t.Fatalf("snapshot metadata wrong: %+v", qs)
	}
	if qs.LeftEpoch != 100 || qs.RightEpoch != 100 {
		t.Fatalf("epochs = %d/%d, want 100/100", qs.LeftEpoch, qs.RightEpoch)
	}
	before, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot; the live synopses (and answers) must not move.
	qs.Left.Update(7, 1000)
	qs.Right.Update(7, 1000)
	after, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if before.Estimate != after.Estimate {
		t.Fatal("mutating a QuerySketches snapshot changed the live answer")
	}

	if _, err := tn.QuerySketches("nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("QuerySketches on an unknown query: %v, want ErrUnknownQuery", err)
	}
	if _, err := tn.Answer("nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("Answer on an unknown query: %v, want ErrUnknownQuery", err)
	}
	if err := tn.RemoveQuery("nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("RemoveQuery on an unknown query: %v, want ErrUnknownQuery", err)
	}
}

// TestQueryDomainIsTheLargerSide: a query over a side of domain 64 and
// one of domain 1024 scans domain 1024, in either order.
func TestQueryDomainIsTheLargerSide(t *testing.T) {
	tn := newSketchTestTenant(t)
	if err := tn.DeclareStream("S", 64); err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]QuerySpec{
		"small left":  {Name: "sl", Agg: Count, Left: Side{Stream: "S"}, Right: Side{Stream: "F"}},
		"small right": {Name: "sr", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "S"}},
	} {
		if err := tn.RegisterQuery(spec); err != nil {
			t.Fatal(err)
		}
		qs, err := tn.QuerySketches(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if qs.Domain != 1024 {
			t.Errorf("%s: domain %d, want 1024", name, qs.Domain)
		}
	}
}

// TestQuerySketchesMergeAcrossEngines is the cluster linearity property
// end to end at the engine layer: value-partition one workload across 3
// engines, merge their per-side snapshots, and the estimate over the
// merged pair must equal a single engine's answer over the whole
// workload exactly.
func TestQuerySketchesMergeAcrossEngines(t *testing.T) {
	tn := newSketchTestTenant(t)
	parts := []*Tenant{newSketchTestTenant(t), newSketchTestTenant(t), newSketchTestTenant(t)}
	feed := func(streamName string, v uint64, w int64) {
		update(t, tn, streamName, v, w)
		update(t, parts[v%3], streamName, v, w)
	}
	for v := uint64(0); v < 600; v++ {
		feed("F", v%512, 1)
		feed("G", (v*7)%512, int64(1+v%3))
	}

	var lefts, rights []*core.HashSketch
	for _, p := range parts {
		qs, err := p.QuerySketches("q")
		if err != nil {
			t.Fatal(err)
		}
		lefts = append(lefts, qs.Left)
		rights = append(rights, qs.Right)
	}
	mergedL, err := distributed.Merge(lefts...)
	if err != nil {
		t.Fatal(err)
	}
	mergedR, err := distributed.Merge(rights...)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := tn.QuerySketches("q")
	if err != nil {
		t.Fatal(err)
	}
	if blob(t, mergedL) != blob(t, wq.Left) || blob(t, mergedR) != blob(t, wq.Right) {
		t.Fatal("merged shard snapshots are not bit-identical to the single-engine synopses")
	}

	est, err := core.EstimateJoin(mergedL, mergedR, wq.Domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != ans.Estimate {
		t.Fatalf("merged estimate %d != single-engine estimate %d", est.Total, ans.Estimate)
	}
}

// TestQuerySketchesDrainsPipeline: a snapshot must reflect every batch
// enqueued before the call.
func TestQuerySketchesDrainsPipeline(t *testing.T) {
	tn := newSketchTestTenant(t)
	batch := make([]stream.Update, 50)
	for v := range batch {
		batch[v] = stream.Update{Value: uint64(v), Weight: 1}
	}
	if err := tn.IngestBatch("F", batch); err != nil {
		t.Fatal(err)
	}
	qs, err := tn.QuerySketches("q")
	if err != nil {
		t.Fatal(err)
	}
	if qs.LeftEpoch != 50 {
		t.Fatalf("left epoch %d, want 50 (pipeline not drained before snapshot)", qs.LeftEpoch)
	}
}
