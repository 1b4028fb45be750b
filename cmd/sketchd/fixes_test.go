package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
)

// Regression tests for the three sketchd bug fixes: /update batch
// atomicity, explicit zero weights, and /snapshot corruption on a
// mid-stream serialization error.

func streamCount(t *testing.T, ts *httptest.Server, stream string) float64 {
	t.Helper()
	_, body := do(t, "GET", ts.URL+"/stats", nil)
	counts := body["updateCounts"].(map[string]any)
	c, ok := counts[stream]
	if !ok {
		return 0
	}
	return c.(float64)
}

// A multi-stream /update batch must be atomic: when ANY stream group
// fails validation (unknown stream, out-of-domain value), NO group is
// applied — not even groups that validated fine — and the error names
// the failing stream. The old handler applied groups in order until the
// first failure, silently keeping the earlier ones.
func TestUpdateBatchAtomicity(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 64})

	// Unknown stream in the second group.
	code, body := do(t, "POST", ts.URL+"/update", []map[string]any{
		{"stream": "F", "value": 1},
		{"stream": "F", "value": 2},
		{"stream": "nope", "value": 3},
	})
	if code != 400 {
		t.Fatalf("status = %d, want 400", code)
	}
	if got := body["stream"]; got != "nope" {
		t.Fatalf("error names stream %v, want \"nope\"", got)
	}
	if n := streamCount(t, ts, "F"); n != 0 {
		t.Fatalf("F received %v updates from a rejected batch, want 0", n)
	}

	// Out-of-domain value in the LAST group: the valid F and G prefixes
	// must not be applied either.
	code, body = do(t, "POST", ts.URL+"/update", []map[string]any{
		{"stream": "F", "value": 1},
		{"stream": "G", "value": 2},
		{"stream": "G", "value": 999},
	})
	if code != 400 {
		t.Fatalf("status = %d, want 400", code)
	}
	if got := body["stream"]; got != "G" {
		t.Fatalf("error names stream %v, want \"G\"", got)
	}
	if f, g := streamCount(t, ts, "F"), streamCount(t, ts, "G"); f != 0 || g != 0 {
		t.Fatalf("rejected batch applied F=%v G=%v updates, want 0/0", f, g)
	}

	// A fully valid batch still applies.
	if code, body := do(t, "POST", ts.URL+"/update", []map[string]any{
		{"stream": "F", "value": 1},
		{"stream": "G", "value": 2},
	}); code != 200 || body["applied"].(float64) != 2 {
		t.Fatalf("valid batch: %d %v", code, body)
	}
}

// An explicit "weight": 0 must be honored as a no-op update, not
// rewritten to the omitted-weight default of 1.
func TestUpdateExplicitZeroWeight(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 64})
	do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "q",
		"left": map[string]any{"stream": "F"}, "right": map[string]any{"stream": "G"},
	})
	do(t, "POST", ts.URL+"/update", []map[string]any{
		{"stream": "F", "value": 7, "weight": 10},
		{"stream": "G", "value": 7, "weight": 5},
	})
	// Explicit zero: f_7 stays 10 → estimate stays 50.
	do(t, "POST", ts.URL+"/update", map[string]any{"stream": "F", "value": 7, "weight": 0})
	if _, body := do(t, "GET", ts.URL+"/answer?query=q", nil); body["estimate"].(float64) != 50 {
		t.Fatalf("estimate = %v after explicit zero weight, want 50 (zero treated as +1?)", body["estimate"])
	}
	// Omitted weight still defaults to 1: f_7 = 11 → 55.
	do(t, "POST", ts.URL+"/update", map[string]any{"stream": "F", "value": 7})
	if _, body := do(t, "GET", ts.URL+"/answer?query=q", nil); body["estimate"].(float64) != 55 {
		t.Fatalf("estimate = %v after omitted weight, want 55", body["estimate"])
	}
}

// failingSnapshot is a node whose snapshot writes a partial payload
// and then fails.
type failingSnapshot struct{ *cluster.Node }

func (failingSnapshot) Snapshot(_ context.Context, _ string, w io.Writer) error {
	if _, err := w.Write([]byte(`{"version":1,"stre`)); err != nil {
		return err
	}
	return errors.New("synopsis marshal failed")
}

// A snapshot that fails mid-serialization must yield a clean 500 JSON
// error, never a 200 with truncated snapshot bytes glued to an error
// fragment. The failing producer below writes a partial payload before
// erroring — none of it may reach the client.
func TestSnapshotMidStreamErrorIsClean(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 7}, engine.IngestConfig{Workers: 1})
	ts := httptest.NewServer(serve.New(failingSnapshot{cluster.NewNode(eng)}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("error body is not clean JSON: %v (%q)", err, raw)
	}
	if out["error"] == "" {
		t.Fatalf("missing error field in %q", raw)
	}
	if string(raw[0]) != "{" || len(raw) > 256 {
		t.Fatalf("response carries partial snapshot bytes: %q", raw)
	}
}

// A successful snapshot must carry an exact Content-Length (the body is
// buffered), so clients detect truncated transfers.
func TestSnapshotContentLength(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength <= 0 || resp.ContentLength != int64(len(raw)) {
		t.Fatalf("Content-Length = %d, body = %d bytes", resp.ContentLength, len(raw))
	}
	if err := json.Unmarshal(raw, &map[string]any{}); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
}

// /stats must surface the answer-cache counters and the configured
// estimation parallelism.
func TestStatsReportsAnswerCache(t *testing.T) {
	ts := testServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 64})
	do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "q",
		"left": map[string]any{"stream": "F"}, "right": map[string]any{"stream": "G"},
	})
	do(t, "GET", ts.URL+"/answer?query=q", nil)
	do(t, "GET", ts.URL+"/answer?query=q", nil)
	_, body := do(t, "GET", ts.URL+"/stats", nil)
	cache, ok := body["answerCache"].(map[string]any)
	if !ok {
		t.Fatalf("missing answerCache in %v", body)
	}
	if cache["misses"].(float64) != 1 || cache["hits"].(float64) != 1 {
		t.Fatalf("answerCache = %v, want 1 hit / 1 miss", cache)
	}
	if _, ok := body["queryWorkers"]; !ok {
		t.Fatalf("missing queryWorkers in %v", body)
	}
}

// failingQueries is a node whose query reads fail for a reason other
// than an unknown query.
type failingQueries struct{ *cluster.Node }

func (failingQueries) Answer(context.Context, string, string) (serve.Answer, error) {
	return serve.Answer{}, errors.New("estimate failed")
}

func (failingQueries) Sketch(context.Context, string, string) ([]byte, *serve.Coverage, error) {
	return nil, nil, errors.New("snapshot failed")
}

// /answer and /sketch answer 404 only for a query that is not
// registered; any other backend failure is a 500, so a failed estimate
// never reads as "not found".
func TestQueryReadStatusCodes(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 7}, engine.IngestConfig{Workers: 1})
	node := cluster.NewNode(eng)
	healthy := httptest.NewServer(serve.New(node))
	defer healthy.Close()
	failing := httptest.NewServer(serve.New(failingQueries{node}))
	defer failing.Close()
	do(t, "POST", healthy.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", healthy.URL+"/streams", map[string]any{"name": "G", "domain": 64})
	do(t, "POST", healthy.URL+"/queries", map[string]any{
		"name": "q",
		"left": map[string]any{"stream": "F"}, "right": map[string]any{"stream": "G"},
	})
	for _, tc := range []struct {
		srv  *httptest.Server
		path string
		want int
	}{
		{healthy, "/answer?query=q", http.StatusOK},
		{healthy, "/sketch?query=q", http.StatusOK},
		{healthy, "/answer?query=missing", http.StatusNotFound},
		{healthy, "/sketch?query=missing", http.StatusNotFound},
		{healthy, "/t/other/answer?query=q", http.StatusNotFound},
		{failing, "/answer?query=q", http.StatusInternalServerError},
		{failing, "/sketch?query=q", http.StatusInternalServerError},
	} {
		resp, err := http.Get(tc.srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s%s = %d, want %d", tc.srv.URL, tc.path, resp.StatusCode, tc.want)
		}
	}
}
