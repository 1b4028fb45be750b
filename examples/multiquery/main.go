// Multiquery: the stream query-processing engine of the paper's Figure 1
// serving several continuous queries at once, with synopsis sharing.
// Three streams (two ad-impression feeds and a click feed) support four
// registered queries; sides that agree on stream, predicate, window and
// sketch configuration share one synopsis, so memory and per-element
// work grow with distinct synopses, not with queries.
//
// Run with: go run ./examples/multiquery
package main

import (
	"fmt"
	"log"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

const domain = 1 << 14 // user-id space

func main() {
	eng, err := engine.New(engine.Options{
		SketchConfig: core.Config{Tables: 7, Buckets: 1024, Seed: 17},
	})
	if err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Every update reaches the synopses through the engine's shard-worker
	// pipeline; StopIngest drains it on the way out.
	must(eng.StartIngest(engine.IngestConfig{}))
	defer eng.StopIngest()
	// One tenant is all this example needs: the default namespace.
	tn := eng.Tenant(engine.DefaultTenant)
	must(tn.DeclareStream("impressionsA", domain))
	must(tn.DeclareStream("impressionsB", domain))
	must(tn.DeclareStream("clicks", domain))
	// "premium" users live in the low id range in this toy schema.
	must(tn.RegisterPredicate("premium", func(v uint64, _ int64) bool { return v < 2048 }))

	// Four continuous queries over three streams.
	must(tn.RegisterQuery(engine.QuerySpec{Name: "overlapAB", Agg: engine.Count,
		Left:  engine.Side{Stream: "impressionsA"},
		Right: engine.Side{Stream: "impressionsB"}}))
	must(tn.RegisterQuery(engine.QuerySpec{Name: "clickthroughA", Agg: engine.Count,
		Left:  engine.Side{Stream: "impressionsA"},
		Right: engine.Side{Stream: "clicks"}}))
	must(tn.RegisterQuery(engine.QuerySpec{Name: "clickthroughB", Agg: engine.Count,
		Left:  engine.Side{Stream: "impressionsB"},
		Right: engine.Side{Stream: "clicks"}}))
	must(tn.RegisterQuery(engine.QuerySpec{Name: "premiumClicksA", Agg: engine.Count,
		Left:  engine.Side{Stream: "impressionsA", Predicate: "premium"},
		Right: engine.Side{Stream: "clicks", Predicate: "premium"}}))

	// Feed the streams: both impression feeds share a hot user set; the
	// click feed follows feed A more closely than feed B.
	hot := []uint64{3, 77, 1200, 5000, 9001}
	ga := workload.NewMixture(workload.NewUniform(domain, 1), hot, 0.3, 2)
	gb := workload.NewMixture(workload.NewUniform(domain, 3), hot, 0.2, 4)
	gc := workload.NewMixture(workload.NewUniform(domain, 5), hot, 0.4, 6)
	var as, bs, cs []stream.Update
	for i := 0; i < 100000; i++ {
		as = append(as, stream.Insert(ga.Next()))
		bs = append(bs, stream.Insert(gb.Next()))
		if i%3 == 0 { // clicks are rarer
			cs = append(cs, stream.Insert(gc.Next()))
		}
	}
	must(tn.IngestBatch("impressionsA", as))
	must(tn.IngestBatch("impressionsB", bs))
	must(tn.IngestBatch("clicks", cs))

	fmt.Println("query            estimate")
	for _, q := range tn.Queries() {
		ans, err := tn.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s  %10d\n", q, ans.Estimate)
	}

	st := eng.Stats()
	fmt.Printf("\n%d queries (%d query sides) served by %d shared synopses, %d words total\n",
		st.Queries, st.SynopsisRefs, st.Synopses, st.TotalWords)
	fmt.Printf("without sharing this would take %d synopses\n", st.SynopsisRefs)
}
