package engine

import (
	"strings"
	"sync"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func defaultOpts() Options {
	return Options{SketchConfig: core.Config{Tables: 5, Buckets: 256, Seed: 7}}
}

// mustEngine returns an engine whose ingest pipeline runs two workers
// and stops when the test ends.
func mustEngine(t testing.TB) *Engine {
	t.Helper()
	return startEngine(t, defaultOpts(), IngestConfig{Workers: 2})
}

// startEngine returns an engine built from opts whose pipeline, tuned
// by cfg, runs until the test ends.
func startEngine(t testing.TB, opts Options, cfg IngestConfig) *Engine {
	t.Helper()
	e := idleEngine(t, opts)
	if err := e.StartIngest(cfg); err != nil {
		t.Fatal(err)
	}
	return e
}

// idleEngine returns an engine built from opts whose pipeline is not
// started yet; whatever the test starts is stopped when it ends.
func idleEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.StopIngest)
	return e
}

// update ingests one element through the pipeline; reads quiesce, so
// the next Answer, Stats or snapshot sees it.
func update(t testing.TB, b interface {
	IngestBatch(string, []stream.Update) error
}, streamName string, value uint64, weight int64) {
	t.Helper()
	if err := b.IngestBatch(streamName, []stream.Update{{Value: value, Weight: weight}}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("expected error for empty config")
	}
}

func TestDeclareStreamValidation(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	if err := tn.DeclareStream("", 16); err == nil {
		t.Fatal("expected error for empty name")
	}
	if err := tn.DeclareStream("F", 0); err == nil {
		t.Fatal("expected error for zero domain")
	}
	if err := tn.DeclareStream("F", 16); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("F", 16); err == nil {
		t.Fatal("expected duplicate-stream error")
	}
}

func TestRegisterPredicateValidation(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	if err := tn.RegisterPredicate("", Predicate{}); err == nil {
		t.Fatal("expected error for an empty predicate name")
	}
	if err := tn.RegisterPredicate("p", Predicate{Min: 9, Max: 1}); err == nil {
		t.Fatal("expected error for max below min")
	}
}

// TestRegisterPredicateIdenticalOrConflicting: re-registering the same
// range is a no-op, and another range under the name is refused naming
// the registered one, which stays in force.
func TestRegisterPredicateIdenticalOrConflicting(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	for i := 0; i < 2; i++ {
		if err := tn.RegisterPredicate("low", Predicate{Max: 31}); err != nil {
			t.Fatalf("registration %d: %v", i+1, err)
		}
	}
	if err := tn.RegisterPredicate("low", Predicate{Max: 7}); err == nil || !strings.Contains(err.Error(), "[0,31]") {
		t.Fatalf("conflicting range: %v, want a refusal naming [0,31]", err)
	}
	e.mu.Lock()
	got := e.predicates[nsKey{DefaultTenant, "low"}]
	e.mu.Unlock()
	if got != (Predicate{Max: 31}) {
		t.Fatalf("registered range %+v after the refusal, want [0,31]", got)
	}
}

func TestRegisterQueryValidation(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	cases := []QuerySpec{
		{Name: "", Left: Side{Stream: "F"}, Right: Side{Stream: "F"}},
		{Name: "q", Agg: Aggregate(9), Left: Side{Stream: "F"}, Right: Side{Stream: "F"}},
		{Name: "q", Left: Side{Stream: "missing"}, Right: Side{Stream: "F"}},
		{Name: "q", Left: Side{Stream: "F"}, Right: Side{Stream: "missing"}},
		{Name: "q", Left: Side{Stream: "F", Predicate: "missing"}, Right: Side{Stream: "F"}},
		{Name: "q", Left: Side{Stream: "F", WindowBuckets: 3}, Right: Side{Stream: "F"}},
		{Name: "q", Left: Side{Stream: "F", WindowLen: 10, WindowBuckets: 3}, Right: Side{Stream: "F"}},
	}
	for i, spec := range cases {
		if err := tn.RegisterQuery(spec); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, spec)
		}
	}
	good := QuerySpec{Name: "q", Left: Side{Stream: "F"}, Right: Side{Stream: "F"}}
	if err := tn.RegisterQuery(good); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterQuery(good); err == nil {
		t.Fatal("expected duplicate-query error")
	}
}

func TestUpdateValidation(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	tn.DeclareStream("F", 16)
	if err := tn.IngestBatch("missing", []stream.Update{stream.Insert(1)}); err == nil {
		t.Fatal("expected unknown-stream error")
	}
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(16)}); err == nil {
		t.Fatal("expected out-of-domain error")
	}
	update(t, tn, "F", 15, 1)
}

func TestAnswerUnknownQuery(t *testing.T) {
	e := mustEngine(t)
	if _, err := e.Tenant(DefaultTenant).Answer("missing"); err == nil {
		t.Fatal("expected unknown-query error")
	}
}

func TestCountQueryEndToEnd(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	const domain = 1 << 10
	tn.DeclareStream("F", domain)
	tn.DeclareStream("G", domain)
	if err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count,
		Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	zf, _ := workload.NewZipf(domain, 1.2, 1)
	zg, _ := workload.NewZipf(domain, 1.2, 2)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	for i := 0; i < 20000; i++ {
		v := zf.Next()
		update(t, tn, "F", v, 1)
		fv.Update(v, 1)
		w := zg.Next()
		update(t, tn, "G", w, 1)
		gv.Update(w, 1)
	}
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(fv.InnerProduct(gv))
	if errv := stats.SymmetricError(float64(ans.Estimate), exact); errv > 0.3 {
		t.Fatalf("engine COUNT error %.4f (est %d vs exact %.0f)", errv, ans.Estimate, exact)
	}
	if ans.Agg != Count || ans.Query != "q" {
		t.Fatalf("answer metadata wrong: %+v", ans)
	}
}

func TestSelfJoinQuery(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	tn.DeclareStream("F", 64)
	tn.RegisterQuery(QuerySpec{Name: "f2", Agg: Count,
		Left: Side{Stream: "F"}, Right: Side{Stream: "F"}})
	for i := 0; i < 9; i++ {
		update(t, tn, "F", 5, 1)
	}
	ans, err := tn.Answer("f2")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 81 {
		t.Fatalf("self-join estimate = %d, want 81", ans.Estimate)
	}
	// Both sides share one synopsis.
	st := e.Stats()
	if st.Synopses != 1 || st.SynopsisRefs != 2 {
		t.Fatalf("sharing stats wrong: %+v", st)
	}
}

func TestPredicatePushdown(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	tn.DeclareStream("F", 64)
	tn.DeclareStream("G", 64)
	tn.RegisterPredicate("upTo2", Predicate{Max: 2})
	tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count,
		Left:  Side{Stream: "F", Predicate: "upTo2"},
		Right: Side{Stream: "G"}})
	// F values above the range must be dropped before sketching.
	update(t, tn, "F", 2, 10)
	update(t, tn, "F", 3, 10)
	update(t, tn, "G", 2, 4)
	update(t, tn, "G", 3, 4)
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 40 {
		t.Fatalf("estimate = %d, want 40 (only values in range join)", ans.Estimate)
	}
}

func TestSumQuery(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	tn.DeclareStream("subs", 64)
	tn.DeclareStream("sales", 64)
	tn.RegisterQuery(QuerySpec{Name: "rev", Agg: Sum,
		Left: Side{Stream: "subs"}, Right: Side{Stream: "sales"}})
	update(t, tn, "subs", 9, 1)
	update(t, tn, "subs", 9, 1)
	update(t, tn, "sales", 9, 250) // measure-weighted
	update(t, tn, "sales", 9, 100)
	update(t, tn, "sales", 3, 999) // non-joining
	ans, err := tn.Answer("rev")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 700 {
		t.Fatalf("SUM estimate = %d, want 700", ans.Estimate)
	}
}

func TestSynopsisSharingAcrossQueries(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	tn.DeclareStream("F", 64)
	tn.DeclareStream("G", 64)
	tn.DeclareStream("H", 64)
	tn.RegisterQuery(QuerySpec{Name: "fg", Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	tn.RegisterQuery(QuerySpec{Name: "fh", Left: Side{Stream: "F"}, Right: Side{Stream: "H"}})
	st := e.Stats()
	// F's synopsis is shared: 3 synopses serve 4 query sides.
	if st.Synopses != 3 || st.SynopsisRefs != 4 {
		t.Fatalf("sharing stats wrong: %+v", st)
	}
	if st.Queries != 2 || st.Streams != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
	// An element on F is visible to both queries.
	update(t, tn, "F", 1, 5)
	update(t, tn, "G", 1, 2)
	update(t, tn, "H", 1, 3)
	fg, _ := tn.Answer("fg")
	fh, _ := tn.Answer("fh")
	if fg.Estimate != 10 || fh.Estimate != 15 {
		t.Fatalf("estimates %d/%d, want 10/15", fg.Estimate, fh.Estimate)
	}
}

func TestRemoveQueryGarbageCollects(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	tn.DeclareStream("F", 64)
	tn.DeclareStream("G", 64)
	tn.RegisterQuery(QuerySpec{Name: "fg", Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	tn.RegisterQuery(QuerySpec{Name: "fg2", Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	if st := e.Stats(); st.Synopses != 2 || st.SynopsisRefs != 4 {
		t.Fatalf("pre-remove stats: %+v", st)
	}
	if err := tn.RemoveQuery("fg"); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Synopses != 2 || st.SynopsisRefs != 2 {
		t.Fatalf("after removing one of two sharers: %+v", st)
	}
	if err := tn.RemoveQuery("fg2"); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Synopses != 0 || st.TotalWords != 0 {
		t.Fatalf("after removing all queries: %+v", st)
	}
	if err := tn.RemoveQuery("fg"); err == nil {
		t.Fatal("expected unknown-query error")
	}
}

func TestWindowedQuerySide(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	tn.DeclareStream("F", 64)
	tn.DeclareStream("G", 64)
	if err := tn.RegisterQuery(QuerySpec{Name: "w", Agg: Count,
		Left:  Side{Stream: "F", WindowLen: 100, WindowBuckets: 4},
		Right: Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	// Heavy early F value must expire from the window.
	for i := 0; i < 90; i++ {
		update(t, tn, "F", 7, 1)
	}
	for i := 0; i < 500; i++ {
		update(t, tn, "F", uint64(i%32)+32, 1)
	}
	update(t, tn, "G", 7, 100)
	ans, err := tn.Answer("w")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate > 2000 { // would be 9000 without expiry
		// Estimate should be near zero: the 7s are long expired.
		t.Fatalf("windowed estimate %d; expired values must not join", ans.Estimate)
	}
	// Stats must account for the windowed synopsis' bucket words.
	st := e.Stats()
	wantWords := 4*5*256 + 5*256 // windowed F side + plain G side
	if st.TotalWords != wantWords {
		t.Fatalf("TotalWords = %d, want %d", st.TotalWords, wantWords)
	}
}

func TestQueriesAndStreamsListing(t *testing.T) {
	tn := mustEngine(t).Tenant(DefaultTenant)
	tn.DeclareStream("B", 16)
	tn.DeclareStream("A", 16)
	tn.RegisterQuery(QuerySpec{Name: "z", Left: Side{Stream: "A"}, Right: Side{Stream: "B"}})
	tn.RegisterQuery(QuerySpec{Name: "a", Left: Side{Stream: "A"}, Right: Side{Stream: "B"}})
	qs := tn.Queries()
	if len(qs) != 2 || qs[0] != "a" || qs[1] != "z" {
		t.Fatalf("Queries = %v", qs)
	}
	ss := tn.Streams()
	if len(ss) != 2 || ss[0] != "A" || ss[1] != "B" {
		t.Fatalf("Streams = %v", ss)
	}
}

func TestConcurrentUpdatesAndAnswers(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	tn.DeclareStream("F", 1024)
	tn.DeclareStream("G", 1024)
	tn.RegisterQuery(QuerySpec{Name: "q", Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := tn.IngestGroups([]stream.Group{
					{Name: "F", Updates: []stream.Update{stream.Insert(uint64((i*7 + p) % 1024))}},
					{Name: "G", Updates: []stream.Update{stream.Insert(uint64((i*13 + p) % 1024))}},
				}, nil); err != nil {
					t.Error(err)
					return
				}
				if i%500 == 0 {
					if _, err := tn.Answer("q"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	st := e.Stats()
	if st.UpdateCounts["F"] != 8000 || st.UpdateCounts["G"] != 8000 {
		t.Fatalf("update counts: %+v", st.UpdateCounts)
	}
}

// TestAggregateString: an aggregate prints its name, and only a known
// one is written as text. Request bodies name it in any case, the empty
// name is COUNT, and an unknown name is refused by name.
func TestAggregateString(t *testing.T) {
	if Count.String() != "COUNT" || Sum.String() != "SUM" {
		t.Fatal("aggregate names")
	}
	if Aggregate(9).String() == "" {
		t.Fatal("unknown aggregate must still print")
	}
	if _, err := Aggregate(9).MarshalText(); err == nil {
		t.Fatal("an unknown aggregate was written")
	}
	for text, want := range map[string]Aggregate{"COUNT": Count, "count": Count, "": Count, "SUM": Sum, "Sum": Sum} {
		got := Aggregate(9)
		if err := got.UnmarshalText([]byte(text)); err != nil || got != want {
			t.Fatalf("%q reads as %v (%v), want %v", text, got, err, want)
		}
		if b, err := want.MarshalText(); err != nil || string(b) != want.String() {
			t.Fatalf("%v writes as %q (%v)", want, b, err)
		}
	}
	var a Aggregate
	if err := a.UnmarshalText([]byte("MAX")); err == nil || err.Error() != `unknown aggregate "MAX"` {
		t.Fatalf("MAX: %v, want unknown aggregate \"MAX\"", err)
	}
}
