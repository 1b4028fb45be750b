package engine_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
)

// The Figure 1 architecture in miniature: declare streams, register a
// continuous query, push updates, read the approximate answer.
func Example() {
	eng, err := engine.New(engine.Options{
		SketchConfig: core.Config{Tables: 5, Buckets: 128, Seed: 7},
	})
	if err != nil {
		panic(err)
	}
	// Updates reach synopses through the shard-worker pipeline.
	if err := eng.StartIngest(engine.IngestConfig{}); err != nil {
		panic(err)
	}
	defer eng.StopIngest()
	// Streams, queries and answers live in a tenant namespace.
	tn := eng.Tenant(engine.DefaultTenant)
	tn.DeclareStream("F", 1024)
	tn.DeclareStream("G", 1024)
	tn.RegisterQuery(engine.QuerySpec{
		Name: "overlap", Agg: engine.Count,
		Left:  engine.Side{Stream: "F"},
		Right: engine.Side{Stream: "G"},
	})

	tn.IngestBatch("F", []stream.Update{{Value: 7, Weight: 10}})
	tn.IngestBatch("G", []stream.Update{
		{Value: 7, Weight: 4},
		{Value: 9, Weight: 100}, // non-joining
	})

	ans, err := tn.Answer("overlap")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s(F ⋈ G) ≈ %d\n", ans.Agg, ans.Estimate)
	// Output: COUNT(F ⋈ G) ≈ 40
}
