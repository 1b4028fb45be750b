package engine_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
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

// The Figure 1 engine serving several continuous queries at once. Two
// ad-impression feeds and a click feed support four queries; sides that
// agree on stream, predicate, window and sketch configuration share one
// synopsis, so memory and per-element work grow with distinct synopses,
// not with queries.
func ExampleEngine_multiquery() {
	const domain = 1 << 14 // user-id space
	eng, err := engine.New(engine.Options{
		SketchConfig: core.Config{Tables: 7, Buckets: 1024, Seed: 17},
	})
	if err != nil {
		panic(err)
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(eng.StartIngest(engine.IngestConfig{}))
	defer eng.StopIngest()
	tn := eng.Tenant(engine.DefaultTenant)
	must(tn.DeclareStream("impressionsA", domain))
	must(tn.DeclareStream("impressionsB", domain))
	must(tn.DeclareStream("clicks", domain))
	// "premium" users live in the low id range in this toy schema.
	must(tn.RegisterPredicate("premium", engine.Predicate{Max: 2047}))
	query := func(name string, left, right engine.Side) {
		must(tn.RegisterQuery(engine.QuerySpec{Name: name, Agg: engine.Count, Left: left, Right: right}))
	}
	query("overlapAB", engine.Side{Stream: "impressionsA"}, engine.Side{Stream: "impressionsB"})
	query("clickthroughA", engine.Side{Stream: "impressionsA"}, engine.Side{Stream: "clicks"})
	query("clickthroughB", engine.Side{Stream: "impressionsB"}, engine.Side{Stream: "clicks"})
	query("premiumClicksA",
		engine.Side{Stream: "impressionsA", Predicate: "premium"},
		engine.Side{Stream: "clicks", Predicate: "premium"})

	// Feed A and the click feed share one skewed audience; feed B
	// reaches everyone alike. Clicks are a third as frequent.
	ga, err := workload.NewZipf(domain, 1.1, 1)
	must(err)
	gc, err := workload.NewZipf(domain, 1.1, 5)
	must(err)
	gb := workload.NewUniform(domain, 3)
	var as, bs, cs []stream.Update
	for i := 0; i < 20000; i++ {
		as = append(as, stream.Insert(ga.Next()))
		bs = append(bs, stream.Insert(gb.Next()))
		if i%3 == 0 {
			cs = append(cs, stream.Insert(gc.Next()))
		}
	}
	must(tn.IngestBatch("impressionsA", as))
	must(tn.IngestBatch("impressionsB", bs))
	must(tn.IngestBatch("clicks", cs))

	for _, q := range tn.Queries() {
		ans, err := tn.Answer(q)
		must(err)
		fmt.Printf("%-15s %9d\n", q, ans.Estimate)
	}
	st := eng.Stats()
	fmt.Printf("%d queries (%d query sides) served by %d synopses, %d words\n",
		st.Queries, st.SynopsisRefs, st.Synopses, st.TotalWords)
	// Output:
	// clickthroughA     4111111
	// clickthroughB        8564
	// overlapAB           32291
	// premiumClicksA    4111179
	// 4 queries (8 query sides) served by 5 synopses, 35840 words
}
