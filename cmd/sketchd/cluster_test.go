package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsUnknownRole: a typo'd -role must fail loudly at boot,
// not silently run a standalone node inside a cluster.
func TestRunRejectsUnknownRole(t *testing.T) {
	opts, err := parseFlags([]string{"-role", "coordinator"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), opts, os.Stderr); err == nil || !strings.Contains(err.Error(), "coordinator") {
		t.Fatalf("run accepted unknown role: %v", err)
	}
	opts, err = parseFlags([]string{"-role", "merger"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), opts, os.Stderr); err == nil || !strings.Contains(err.Error(), "cluster.config") {
		t.Fatalf("merger without a membership file booted: %v", err)
	}
}

// startCluster boots n shard run() lifecycles and a merger over them,
// stopping all of them when the test ends. It returns the shard and
// merger base URLs.
func startCluster(t *testing.T, n int, mergerArgs ...string) ([]string, string) {
	t.Helper()
	var shards, ring []string
	for i := 0; i < n; i++ {
		opts, err := parseFlags([]string{"-role", "shard", "-addr", "127.0.0.1:0", "-tables", "5", "-buckets", "256"})
		if err != nil {
			t.Fatal(err)
		}
		base := startStopped(t, opts)
		shards = append(shards, base)
		ring = append(ring, fmt.Sprintf(`{"name":"s%d","addr":"%s"}`, i, base))
	}
	path := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(path, []byte(`{"shards":[`+strings.Join(ring, ",")+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	opts, err := parseFlags(append([]string{"-role", "merger", "-addr", "127.0.0.1:0", "-cluster.config", path}, mergerArgs...))
	if err != nil {
		t.Fatal(err)
	}
	return shards, startStopped(t, opts)
}

// startStopped boots run() and registers its clean shutdown with the
// test's cleanup.
func startStopped(t *testing.T, opts options) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	base, done := startRun(t, ctx, opts, &syncBuffer{})
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return base
}

// watchRows decodes a /watches or /watches/evaluate response.
func watchRows(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out struct{ Watches []map[string]any }
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	return out.Watches
}

// TestClusterWatchEvaluatesGlobalEstimate: a watch registered through
// the merger evaluates the merger's global answer. Its high mark sits
// above every shard's partial estimate and at the global one, so only a
// watch on the global estimate raises; a watch evaluated shard by shard
// sees one shard's partial estimate and never does.
func TestClusterWatchEvaluatesGlobalEstimate(t *testing.T) {
	shards, mbase := startCluster(t, 2)
	for _, req := range []struct{ path, body string }{
		{"/streams", `{"name":"F","domain":64}`},
		{"/streams", `{"name":"G","domain":64}`},
		{"/queries", `{"name":"q","left":{"stream":"F"},"right":{"stream":"G"}}`},
	} {
		if code, body := httpJSON(t, "POST", mbase+req.path, req.body); code != 201 {
			t.Fatalf("POST %s via merger: %d %s", req.path, code, body)
		}
	}
	var batch []string
	for v := 0; v < 16; v++ {
		batch = append(batch, fmt.Sprintf(`{"stream":"F","value":%d,"weight":10}`, v), fmt.Sprintf(`{"stream":"G","value":%d,"weight":10}`, v))
	}
	if code, body := httpJSON(t, "POST", mbase+"/update", "["+strings.Join(batch, ",")+"]"); code != 200 {
		t.Fatalf("POST /update via merger: %d %s", code, body)
	}
	estimate := func(base string) int64 {
		t.Helper()
		code, body := httpJSON(t, "GET", base+"/answer?query=q", "")
		if code != 200 {
			t.Fatalf("GET %s/answer: %d %s", base, code, body)
		}
		var ans struct{ Estimate int64 }
		if err := json.Unmarshal([]byte(body), &ans); err != nil {
			t.Fatal(err)
		}
		return ans.Estimate
	}
	var high int64
	for _, s := range shards {
		high = max(high, estimate(s)+1)
	}
	global := estimate(mbase)
	if global < high {
		t.Fatalf("global estimate %d does not exceed every shard's partial (high %d)", global, high)
	}
	if code, body := httpJSON(t, "POST", mbase+"/watches", fmt.Sprintf(`{"query":"q","high":%d,"low":0}`, high)); code != 201 {
		t.Fatalf("POST /watches via merger: %d %s", code, body)
	}
	code, body := httpJSON(t, "POST", mbase+"/watches/evaluate", "")
	if code != 200 {
		t.Fatalf("POST /watches/evaluate via merger: %d %s", code, body)
	}
	rows := watchRows(t, body)
	if len(rows) != 1 || rows[0]["state"] != "alert" || rows[0]["lastEstimate"].(float64) != float64(global) {
		t.Fatalf("watch with high %d did not raise on the global estimate %d: %s", high, global, body)
	}
}

// TestClusterUnknownQueryParity: a merger answers a name no query has
// with the status a node answers. Both shards hold the schema the merger
// broadcast, so the node and the merger read the same registrations.
// Every shard's 404 on /sketch is its answer, so the merger pulls each
// shard once instead of retrying.
func TestClusterUnknownQueryParity(t *testing.T) {
	shards, mbase := startCluster(t, 2)
	for _, req := range []struct{ path, body string }{
		{"/streams", `{"name":"F","domain":64}`},
		{"/streams", `{"name":"G","domain":64}`},
		{"/queries", `{"name":"q","left":{"stream":"F"},"right":{"stream":"G"}}`},
		{"/watches", `{"query":"q","high":1,"low":0}`},
	} {
		if code, body := httpJSON(t, "POST", mbase+req.path, req.body); code != 201 {
			t.Fatalf("POST %s via merger: %d %s", req.path, code, body)
		}
	}
	pulls := func() float64 {
		t.Helper()
		_, body := httpJSON(t, "GET", mbase+"/stats", "")
		var st struct{ Pulls struct{ Total float64 } }
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		return st.Pulls.Total
	}
	for _, row := range []struct{ method, path, body string }{
		{"GET", "/answer?query=nope", ""},
		{"GET", "/sketch?query=nope", ""},
		{"DELETE", "/queries/nope", ""},
		{"POST", "/watches", `{"query":"nope","high":1,"low":0}`},
		{"DELETE", "/watches/nope", ""},
	} {
		before := pulls()
		ncode, nbody := httpJSON(t, row.method, shards[0]+row.path, row.body)
		mcode, mbody := httpJSON(t, row.method, mbase+row.path, row.body)
		if ncode != mcode {
			t.Errorf("%s %s: node %d %s, merger %d %s", row.method, row.path, ncode, nbody, mcode, mbody)
		}
		if got := pulls() - before; got > float64(len(shards)) {
			t.Errorf("%s %s: merger pulled %v times from %d shards", row.method, row.path, got, len(shards))
		}
	}
}

// TestStreamNameWithSlashRefused: /stats updateCounts names tenant
// acme's stream F "acme/F", so no stream may be declared under a name
// with a '/': a node answers 400, and a merger relays its shards' 400.
func TestStreamNameWithSlashRefused(t *testing.T) {
	shards, mbase := startCluster(t, 2)
	for _, base := range []string{shards[0], mbase} {
		if code, body := httpJSON(t, "POST", base+"/streams", `{"name":"acme/F","domain":64}`); code != 400 {
			t.Errorf("POST %s/streams acme/F: %d %s, want 400", base, code, body)
		}
	}
	if code, body := httpJSON(t, "POST", mbase+"/t/acme/streams", `{"name":"F","domain":64}`); code != 201 {
		t.Fatalf("POST /t/acme/streams F via merger: %d %s", code, body)
	}
}

// TestMergerWatchInterval: -watch.interval drives a merger's watches
// exactly as it drives a node's.
func TestMergerWatchInterval(t *testing.T) {
	_, mbase := startCluster(t, 2, "-watch.interval", "10ms")
	for _, req := range []struct{ path, body string }{
		{"/streams", `{"name":"F","domain":64}`},
		{"/streams", `{"name":"G","domain":64}`},
		{"/queries", `{"name":"q","left":{"stream":"F"},"right":{"stream":"G"}}`},
		{"/watches", `{"query":"q","high":1,"low":0}`},
	} {
		if code, body := httpJSON(t, "POST", mbase+req.path, req.body); code != 201 {
			t.Fatalf("POST %s via merger: %d %s", req.path, code, body)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := httpJSON(t, "GET", mbase+"/watches", "")
		if code != 200 {
			t.Fatalf("GET /watches via merger: %d %s", code, body)
		}
		if rows := watchRows(t, body); len(rows) == 1 && rows[0]["evaluations"].(float64) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no periodic evaluation within 5s: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
