package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/loadtest"
	"skimsketch/internal/stats"
)

// TestLoadHarnessReconciliation is the deterministic in-process harness
// test: a real sketchd (engine + HTTP server + concurrent ingest
// pipeline) booted via httptest, a seeded loadgen burst, then exact
// reconciliation — every update the harness reports accepted is in the
// engine, the server's monotonic /update latency count matches the
// client's request count, and the emitted BENCH JSON validates against
// the documented schema.
func TestLoadHarnessReconciliation(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 3, Buckets: 256, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeclareStream("F", 1<<12); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeclareStream("G", 1<<12); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery(engine.QuerySpec{
		Name: "q", Agg: engine.Count,
		Left:  engine.Side{Stream: "F"},
		Right: engine.Side{Stream: "G"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2, BatchSize: 64, QueueDepth: 32}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopIngest()
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()

	const totalUpdates = 8000
	cfg := loadtest.Config{
		BaseURL:      ts.URL,
		Streams:      []string{"F", "G"},
		Shape:        "zipf:1.0",
		Domain:       1 << 12,
		Seed:         42,
		Workers:      3,
		Batch:        100,
		QueueDepth:   128, // deep enough that nothing sheds: exact volume
		TotalUpdates: totalUpdates,
		QueryWorkers: 1,
		QueryName:    "q",
		Client: loadtest.Client{Backoff: distributed.Backoff{
			Base: time.Millisecond, Max: 10 * time.Millisecond,
			Rand: rand.New(rand.NewSource(5)),
		}},
	}
	res, err := loadtest.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Exact reconciliation: sent == engine ingested + rejected-by-429
	// (here nothing saturates a depth-128 queue of an in-process server,
	// so all 8000 land unless shed client-side — and a shed batch was
	// never sent).
	if res.Ingest.Errors != 0 {
		t.Fatalf("permanent errors during burst: %d", res.Ingest.Errors)
	}
	if got := res.Ingest.Updates + res.Ingest.Shed; got != totalUpdates {
		t.Fatalf("accepted %d + shed %d = %d, want %d", res.Ingest.Updates, res.Ingest.Shed, got, totalUpdates)
	}
	if res.Ingest.Updates != res.Server.Ingest.UpdatesApplied {
		t.Fatalf("client accepted %d but engine applied %d", res.Ingest.Updates, res.Server.Ingest.UpdatesApplied)
	}
	if res.Ingest.Rejected429 != res.Server.Ingest.Rejected {
		t.Fatalf("client saw %d 429s, server counted %d rejections", res.Ingest.Rejected429, res.Server.Ingest.Rejected)
	}
	if res.Ingest.Requests != res.Server.UpdateLatency.Count {
		t.Fatalf("client made %d requests, server's monotonic latency histogram holds %d",
			res.Ingest.Requests, res.Server.UpdateLatency.Count)
	}
	// And against the engine directly, not just /stats.
	if got := eng.IngestStats().UpdatesApplied; got != res.Ingest.Updates {
		t.Fatalf("engine applied %d, client accepted %d", got, res.Ingest.Updates)
	}

	// The emitted BENCH files validate against the documented schema.
	dir := t.TempDir()
	now := time.Now()
	ingestPath := filepath.Join(dir, "BENCH_ingest.json")
	queryPath := filepath.Join(dir, "BENCH_query.json")
	if err := loadtest.WriteReport(ingestPath, loadtest.IngestReport(res, now)); err != nil {
		t.Fatal(err)
	}
	if err := loadtest.WriteReport(queryPath, loadtest.QueryReport(res, now)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{ingestPath, queryPath} {
		rep, err := loadtest.ReadReport(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		if rep.ThroughputPerSec <= 0 {
			t.Fatalf("%s: zero throughput", filepath.Base(p))
		}
	}
}

// TestLoadgenClientBackoffOn429 is the regression test for the 429
// path end to end: a sketchd with a saturated depth-1 ingest queue
// sheds the harness's batch with Retry-After, the loadtest client's
// jittered backoff retries (honoring the hint as a floor), and once the
// queue drains the batch lands exactly once — no loss, no double count.
func TestLoadgenClientBackoffOn429(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 3, Buckets: 64, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	err = eng.RegisterPredicate("gate", func(uint64, int64) bool {
		entered <- struct{}{}
		<-gate
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeclareStream("G", 64); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery(engine.QuerySpec{
		Name: "q", Agg: engine.Count,
		Left:  engine.Side{Stream: "F", Predicate: "gate"},
		Right: engine.Side{Stream: "G"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 1, BatchSize: 1, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopIngest()
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()

	client := &loadtest.Client{BaseURL: ts.URL, Backoff: distributed.Backoff{
		Base: 5 * time.Millisecond, Max: 50 * time.Millisecond,
		Rand: rand.New(rand.NewSource(3)),
	}}

	// Park the lone worker inside the gated predicate and fill the
	// depth-1 queue: the pipeline is now saturated.
	if _, err := client.SendUpdates(context.Background(), []loadtest.Update{{Stream: "F", Value: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := client.SendUpdates(context.Background(), []loadtest.Update{{Stream: "F", Value: 2}}, nil); err != nil {
		t.Fatal(err)
	}

	// The next batch must be shed with 429 + Retry-After and retried by
	// the client until the gate opens. Open the gate once the first 429
	// is observed (the server's Retry-After is 1s, which floors the
	// client's backoff — so the retry lands after the queue drained).
	var wg sync.WaitGroup
	var out loadtest.SendOutcome
	var sendErr error
	var hist stats.Histogram
	wg.Add(1)
	go func() {
		defer wg.Done()
		out, sendErr = client.SendUpdates(context.Background(),
			[]loadtest.Update{{Stream: "F", Value: 3}, {Stream: "G", Value: 3}}, &hist)
	}()
	// Wait until the server has rejected at least once, then release.
	for eng.IngestStats().Rejected == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if out.Rejected429 < 1 {
		t.Fatalf("expected at least one 429, got %d", out.Rejected429)
	}
	if out.Applied != 2 {
		t.Fatalf("final attempt applied %d updates, want 2", out.Applied)
	}
	if out.Attempts != out.Rejected429+1 {
		t.Fatalf("attempts %d, rejections %d: retried a non-429 or lost one", out.Attempts, out.Rejected429)
	}
	eng.Flush()
	// No loss, no double count: 2 parked updates + the 2-update batch.
	if got := eng.IngestStats().UpdatesApplied; got != 4 {
		t.Fatalf("engine applied %d updates, want exactly 4", got)
	}
	if got := eng.IngestStats().Rejected; got != out.Rejected429 {
		t.Fatalf("engine rejected %d, client observed %d", got, out.Rejected429)
	}
}

// TestHealthzLifecycle pins the readiness contract: ready while
// serving, 503 draining once shutdown flips the gauge.
func TestHealthzLifecycle(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 3, Buckets: 64, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body := httpJSON(t, "GET", ts.URL+"/healthz", ""); code != 200 || body == "" {
		t.Fatalf("healthz while serving: %d %s", code, body)
	}
	client := &loadtest.Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := client.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady against a live server: %v", err)
	}
	srv.SetDraining()
	if code, _ := httpJSON(t, "GET", ts.URL+"/healthz", ""); code != 503 {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
}

// TestStatsUpdateLatencyHistogram: the /stats latency block counts
// every /update request (success and 429 alike) with sane monotonic
// figures.
func TestStatsUpdateLatencyHistogram(t *testing.T) {
	ts := testServer(t)
	if code, _ := do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64}); code != 201 {
		t.Fatal("declare")
	}
	for i := 0; i < 5; i++ {
		if code, _ := do(t, "POST", ts.URL+"/update", map[string]any{"stream": "F", "value": i}); code != 200 {
			t.Fatal("update")
		}
	}
	// A malformed update is timed too — the count is requests, not successes.
	if code, _ := do(t, "POST", ts.URL+"/update", map[string]any{"stream": "nope", "value": 1}); code != 400 {
		t.Fatal("expected 400")
	}
	code, body := do(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatal("stats")
	}
	lat, ok := body["updateLatency"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing updateLatency: %v", body)
	}
	if got := lat["count"].(float64); got != 6 {
		t.Fatalf("updateLatency.count = %v, want 6", got)
	}
	if lat["maxNs"].(float64) <= 0 || lat["p99Ns"].(float64) <= 0 {
		t.Fatalf("latency figures not positive: %v", lat)
	}
	if body["uptimeSeconds"].(float64) <= 0 {
		t.Fatal("uptimeSeconds missing or zero")
	}
}
