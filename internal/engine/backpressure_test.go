package engine_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
)

// post sends body to url and returns the status, the Retry-After
// header and the response body.
func post(t *testing.T, url, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), string(b)
}

// TestUpdateBackpressure429 pins the degradation contract of a node's
// HTTP surface: with every ingest queue slot full, POST /update returns
// 429 with a Retry-After header instead of blocking, nothing is applied,
// the rejection is counted in /stats, and resending the shed request
// after the queue drains applies it exactly once.
func TestUpdateBackpressure429(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 3, Buckets: 64, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 1, BatchSize: 1, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.StopIngest)
	ts := httptest.NewServer(serve.New(cluster.NewNode(eng)))
	defer ts.Close()

	for _, req := range []struct{ path, body string }{
		{"/streams", `{"name":"F","domain":64}`},
		{"/streams", `{"name":"G","domain":64}`},
		{"/queries", `{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}`},
	} {
		if code, _, body := post(t, ts.URL+req.path, req.body); code != 201 {
			t.Fatalf("%s: %d %s", req.path, code, body)
		}
	}

	// The first update is applied; then the lone worker parks...
	if code, _, body := post(t, ts.URL+"/update", `{"stream":"F","value":1}`); code != 200 {
		t.Fatalf("update 1: %d %s", code, body)
	}
	unpark := engine.ParkWorker(eng)
	// ...the second fills the depth-1 queue...
	if code, _, body := post(t, ts.URL+"/update", `{"stream":"F","value":2}`); code != 200 {
		t.Fatalf("update 2: %d %s", code, body)
	}
	// ...and the third must be shed with 429 + Retry-After, not block.
	code, retryAfter, _ := post(t, ts.URL+"/update", `{"stream":"F","value":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", code)
	}
	if retryAfter == "" {
		t.Fatal("429 without Retry-After header")
	}
	unpark()
	if code, _, body := post(t, ts.URL+"/flush", ""); code != 200 {
		t.Fatalf("flush: %d %s", code, body)
	}
	// The shed update was never applied; the two admitted ones were.
	if got := eng.IngestStats().UpdatesApplied; got != 2 {
		t.Fatalf("applied %d updates, want 2", got)
	}
	if got := eng.IngestStats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// And /stats surfaces the counter.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(stats), `"rejected":1`) {
		t.Fatalf("stats missing rejection counter: %d %s %v", resp.StatusCode, stats, err)
	}
	// 429 meant "nothing applied, resend": once the queue drains, the
	// resent update lands exactly once — no loss, no double count.
	if code, _, body := post(t, ts.URL+"/update", `{"stream":"F","value":3}`); code != 200 {
		t.Fatalf("resent update: %d %s", code, body)
	}
	eng.Flush()
	if got := eng.IngestStats().UpdatesApplied; got != 3 {
		t.Fatalf("applied %d updates after the resend, want exactly 3", got)
	}
	if got := eng.IngestStats().Rejected; got != 1 {
		t.Fatalf("rejected = %d after the resend, want 1", got)
	}
}
