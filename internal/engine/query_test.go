package engine

import (
	"errors"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// Tests for the snapshot-then-estimate query path: the epoch-keyed
// answer cache, its invalidation rules, parallel-estimation equivalence,
// and the no-stall guarantee (ingestion proceeds while an Answer is
// estimating outside the locks).

func declareFG(t *testing.T, e *Engine, domain uint64) {
	t.Helper()
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", domain); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", domain); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}
	if err := tn.RegisterQuery(spec); err != nil {
		t.Fatal(err)
	}
}

func zipfBatch(t *testing.T, domain uint64, n int, seed int64) []stream.Update {
	t.Helper()
	z, err := workload.NewZipf(domain, 1.2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MakeStream(z, n)
}

// A repeated Answer with no intervening updates must be served from the
// cache (identical answer, hit counted); an update to either side must
// invalidate the entry and force a fresh estimate.
func TestAnswerCacheHitAndInvalidation(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	declareFG(t, e, 1<<12)
	if err := tn.IngestBatch("F", zipfBatch(t, 1<<12, 4000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("G", zipfBatch(t, 1<<12, 4000, 2)); err != nil {
		t.Fatal(err)
	}

	a1, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("cached answer differs: %+v vs %+v", a1, a2)
	}
	st := e.Stats()
	if st.AnswerCacheMisses != 1 || st.AnswerCacheHits != 1 {
		t.Fatalf("after two answers: hits=%d misses=%d, want 1/1", st.AnswerCacheHits, st.AnswerCacheMisses)
	}

	// An update to the LEFT side invalidates.
	update(t, tn, "F", 3, 1)
	if _, err := tn.Answer("q"); err != nil {
		t.Fatal(err)
	}
	// An update to the RIGHT side invalidates too.
	update(t, tn, "G", 3, 1)
	if _, err := tn.Answer("q"); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.AnswerCacheMisses != 3 || st.AnswerCacheHits != 1 {
		t.Fatalf("after invalidations: hits=%d misses=%d, want 1/3", st.AnswerCacheHits, st.AnswerCacheMisses)
	}
}

// Removing a query and re-registering the same name over fresh synopses
// must not serve the old query's cached answer, even when the fresh
// synopses reach exactly the epochs the cache entry was keyed on.
func TestAnswerCacheClearedOnReregister(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	declareFG(t, e, 1<<10)
	fOld := zipfBatch(t, 1<<10, 3000, 1)
	gOld := zipfBatch(t, 1<<10, 3000, 2)
	if err := tn.IngestBatch("F", fOld); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("G", gOld); err != nil {
		t.Fatal(err)
	}
	old, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}

	if err := tn.RemoveQuery("q"); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}
	if err := tn.RegisterQuery(spec); err != nil {
		t.Fatal(err)
	}
	// Feed the SAME number of updates of different content, driving the
	// fresh synopses to the same epochs the stale entry is keyed on.
	for i := range fOld {
		fOld[i].Value = (fOld[i].Value + 17) % (1 << 10)
		gOld[i].Value = (gOld[i].Value + 29) % (1 << 10)
	}
	if err := tn.IngestBatch("F", fOld); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("G", gOld); err != nil {
		t.Fatal(err)
	}
	fresh, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Detail == old.Detail {
		t.Fatal("re-registered query served the stale cached answer")
	}
}

// QueryWorkers must not change any answer: an engine estimating with 4
// workers returns bit-identical answers to a sequential engine fed the
// same stream (core's parallel-skim exactness, end to end).
func TestAnswerParallelMatchesSequential(t *testing.T) {
	build := func(workers int) Answer {
		opts := defaultOpts()
		opts.QueryWorkers = workers
		e := startEngine(t, opts, IngestConfig{Workers: 2})
		tn := e.Tenant(DefaultTenant)
		declareFG(t, e, 1<<14)
		if err := tn.IngestBatch("F", zipfBatch(t, 1<<14, 20000, 5)); err != nil {
			t.Fatal(err)
		}
		if err := tn.IngestBatch("G", zipfBatch(t, 1<<14, 20000, 6)); err != nil {
			t.Fatal(err)
		}
		a, err := tn.Answer("q")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	seq := build(0)
	for _, w := range []int{2, 4, -1} {
		if par := build(w); par != seq {
			t.Fatalf("workers=%d: answer differs: %+v vs %+v", w, par, seq)
		}
	}
}

// Stats must report the configured estimation parallelism.
func TestStatsReportsQueryWorkers(t *testing.T) {
	opts := defaultOpts()
	opts.QueryWorkers = 4
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.QueryWorkers != 4 {
		t.Fatalf("QueryWorkers = %d, want 4", st.QueryWorkers)
	}
}

// Admission validates every group before admitting any: a request whose
// second group names an unknown stream, or holds an out-of-domain value,
// fails with a *StreamError naming that group's stream, and applies and
// counts nothing.
func TestValidateBatch(t *testing.T) {
	e := mustEngine(t)
	declareFG(t, e, 16)
	tn := e.Tenant(DefaultTenant)
	good := stream.Group{Name: "F", Updates: []stream.Update{{Value: 3, Weight: 1}}}
	for _, bad := range []stream.Group{
		{Name: "nope", Updates: []stream.Update{{Value: 1, Weight: 1}}},
		{Name: "G", Updates: []stream.Update{{Value: 2, Weight: 1}, {Value: 99, Weight: 1}}},
	} {
		err := tn.IngestGroups([]stream.Group{good, bad}, nil)
		var se *StreamError
		if !errors.As(err, &se) || se.Stream != bad.Name {
			t.Fatalf("group %q: got %v, want a *StreamError naming %q", bad.Name, err, bad.Name)
		}
	}
	st := e.Stats()
	if st.UpdateCounts["F"] != 0 || st.UpdateCounts["G"] != 0 || st.Ingest.UpdatesEnqueued != 0 || st.Ingest.UpdatesApplied != 0 {
		t.Fatalf("refused requests were counted: counts %v, ingest %+v", st.UpdateCounts, st.Ingest)
	}
	if qs, err := tn.QuerySketches("q"); err != nil || qs.LeftEpoch != 0 || qs.RightEpoch != 0 {
		t.Fatalf("refused requests reached the synopses: epochs %d/%d, err %v", qs.LeftEpoch, qs.RightEpoch, err)
	}
}

// The no-stall regression: with the pipeline running, an Answer must
// not block ingestion while it estimates. The old implementation held
// the quiesce locks across the estimate; the snapshot-then-estimate
// path releases them after cloning. The answer is held in the
// beforeEstimate hook — past the clone, before the estimate — until an
// IngestBatch+Flush iteration completes, so the test does not depend on
// how long the estimate takes; with the locks held there, Flush blocks
// and the test fails on its deadline. Ingestion then continues while the
// estimate runs: run with -race to also certify the clone hand-off.
func TestIngestProceedsDuringAnswer(t *testing.T) {
	const domain = 1 << 20
	opts := Options{SketchConfig: core.Config{Tables: 5, Buckets: 1024, Seed: 7}}
	e := startEngine(t, opts, IngestConfig{Workers: 4})
	tn := e.Tenant(DefaultTenant)
	declareFG(t, e, domain)
	if err := tn.IngestBatch("F", zipfBatch(t, domain, 50000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("G", zipfBatch(t, domain, 50000, 2)); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	held, proceed := make(chan struct{}), make(chan struct{})
	e.beforeEstimate = func() {
		close(held)
		<-proceed
	}
	done := make(chan error, 1)
	go func() {
		_, err := tn.Answer("q")
		done <- err
	}()
	<-held

	small := zipfBatch(t, domain, 64, 3)
	ingested := make(chan error, 1)
	go func() {
		err := tn.IngestBatch("F", small)
		e.Flush()
		ingested <- err
	}()
	select {
	case err := <-ingested:
		if err != nil {
			close(proceed)
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(proceed) // let the answer release whatever it holds
		t.Fatal("no ingest iteration completed while Answer was estimating: query path stalls the pipeline")
	}
	close(proceed)

	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		if err := tn.IngestBatch("F", small); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
}
