package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
)

// doRaw is do() plus response headers, for contract checks like
// Retry-After on 429.
func doRaw(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// setupTenantHTTP declares streams F and G plus the COUNT query "q"
// under one tenant base URL (e.g. ts.URL+"/t/alice").
func setupTenantHTTP(t *testing.T, base string) {
	t.Helper()
	for _, s := range []string{"F", "G"} {
		if code, body := do(t, "POST", base+"/streams", map[string]any{"name": s, "domain": 1024}); code != 201 {
			t.Fatalf("declare %s under %s: %d %v", s, base, code, body)
		}
	}
	code, body := do(t, "POST", base+"/queries", map[string]any{
		"name": "q", "agg": "COUNT",
		"left":  map[string]any{"stream": "F"},
		"right": map[string]any{"stream": "G"},
	})
	if code != 201 {
		t.Fatalf("register query under %s: %d %v", base, code, body)
	}
}

func pushN(t *testing.T, base string, value uint64, n int) {
	t.Helper()
	batch := make([]map[string]any, 0, 2*n)
	for i := 0; i < n; i++ {
		batch = append(batch,
			map[string]any{"stream": "F", "value": value},
			map[string]any{"stream": "G", "value": value})
	}
	if code, body := do(t, "POST", base+"/update", batch); code != 200 {
		t.Fatalf("update under %s: %d %v", base, code, body)
	}
}

// TestHTTPTenantIsolation drives two tenants with identical stream and
// query names through the wire API and checks estimates, stats slices,
// and the global rollup stay separate.
func TestHTTPTenantIsolation(t *testing.T) {
	ts := testServer(t)
	alice, bob := ts.URL+"/t/alice", ts.URL+"/t/bob"
	setupTenantHTTP(t, alice)
	setupTenantHTTP(t, bob)
	pushN(t, alice, 7, 10) // self-join mass 100
	pushN(t, bob, 7, 2)    // self-join mass 4

	_, ansA := do(t, "GET", alice+"/answer?query=q", nil)
	_, ansB := do(t, "GET", bob+"/answer?query=q", nil)
	if ansA["estimate"].(float64) != 100 || ansB["estimate"].(float64) != 4 {
		t.Fatalf("tenant answers: alice %v bob %v, want 100/4", ansA["estimate"], ansB["estimate"])
	}

	// Tenant-scoped stats carry only that tenant's counters.
	_, stA := do(t, "GET", alice+"/stats", nil)
	if stA["tenant"].(string) != "alice" {
		t.Fatalf("scoped stats tenant = %v", stA["tenant"])
	}
	if counts := stA["updateCounts"].(map[string]any); counts["F"].(float64) != 10 {
		t.Fatalf("alice updateCounts: %v", counts)
	}

	// The global view aggregates and namespaces.
	code, st := do(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("global stats: %d", code)
	}
	if st["streams"].(float64) != 4 || st["queries"].(float64) != 2 {
		t.Fatalf("global stats did not aggregate: %v", st)
	}
	tenants := st["tenants"].(map[string]any)
	if _, ok := tenants["alice"]; !ok {
		t.Fatalf("global stats missing alice slice: %v", tenants)
	}
	counts := st["updateCounts"].(map[string]any)
	if counts["alice/F"].(float64) != 10 || counts["bob/F"].(float64) != 2 {
		t.Fatalf("global updateCounts not tenant-prefixed: %v", counts)
	}

	// /tenants lists both namespaces.
	_, listing := do(t, "GET", ts.URL+"/tenants", nil)
	names := map[string]bool{}
	for _, row := range listing["tenants"].([]any) {
		names[row.(map[string]any)["tenant"].(string)] = true
	}
	if !names["alice"] || !names["bob"] {
		t.Fatalf("/tenants listing: %v", listing)
	}
}

// TestHTTPTenantRouting pins the scoping contract: path prefix, query
// parameter and body field agree or the request is refused — and the
// bare API remains the default tenant.
func TestHTTPTenantRouting(t *testing.T) {
	ts := testServer(t)

	// Bare path = default tenant; /t/default is the same namespace.
	if code, _ := do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64}); code != 201 {
		t.Fatal("bare declare failed")
	}
	if code, body := do(t, "POST", ts.URL+"/t/default/streams", map[string]any{"name": "F", "domain": 64}); code == 201 {
		t.Fatalf("/t/default is a different namespace than the bare API: %d %v", code, body)
	}
	if _, body := do(t, "GET", ts.URL+"/t/default/streams", nil); len(body["streams"].([]any)) != 1 {
		t.Fatalf("/t/default/streams: %v", body)
	}

	// Query parameter and body field scope too.
	if code, _ := do(t, "POST", ts.URL+"/streams?tenant=qt", map[string]any{"name": "F", "domain": 64}); code != 201 {
		t.Fatal("?tenant= scoping failed")
	}
	if code, _ := do(t, "POST", ts.URL+"/update", map[string]any{"tenant": "qt", "stream": "F", "value": 3}); code != 200 {
		t.Fatal("body-tenant update failed")
	}
	_, st := do(t, "GET", ts.URL+"/t/qt/stats", nil)
	if st["updateCounts"].(map[string]any)["F"].(float64) != 1 {
		t.Fatalf("qt stats after body-scoped update: %v", st)
	}

	// Conflicts are refused, not guessed.
	if code, body := do(t, "GET", ts.URL+"/t/a/stats?tenant=b", nil); code != 400 {
		t.Fatalf("path/query tenant conflict: %d %v", code, body)
	}
	if code, body := do(t, "POST", ts.URL+"/t/a/update", map[string]any{"tenant": "b", "stream": "F", "value": 1}); code != 400 {
		t.Fatalf("path/body tenant conflict: %d %v", code, body)
	}
	// Agreeing spellings are fine.
	if code, _ := do(t, "GET", ts.URL+"/t/qt/stats?tenant=qt", nil); code != 200 {
		t.Fatal("agreeing path+query tenant refused")
	}
	// A bare /t/{tenant} with no endpoint is a 404, not a panic.
	if code, _ := do(t, "GET", ts.URL+"/t/a", nil); code != 404 {
		t.Fatal("bare /t/{tenant} not 404")
	}

	// A batch mixing tenant fields can never half-apply.
	code, body := do(t, "POST", ts.URL+"/update", []map[string]any{
		{"tenant": "qt", "stream": "F", "value": 1},
		{"tenant": "other", "stream": "F", "value": 2},
	})
	if code != 400 || !strings.Contains(body["error"].(string), "mixes tenants") {
		t.Fatalf("mixed-tenant batch: %d %v", code, body)
	}
	// Invalid tenant names are 400s.
	if code, _ := do(t, "GET", ts.URL+"/stats?tenant=a%20b", nil); code != 400 {
		t.Fatal("whitespace tenant name accepted")
	}
}

// TestHTTPTenantQuota429 sets a queue-share quota over the admin API and
// checks the wire contract: 429 + Retry-After, rejected counter on the
// tenant's slice, other tenants untouched. Queue-share quotas guard the
// ingest queues, which this server keeps small.
func TestHTTPTenantQuota429(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 7}, engine.IngestConfig{Workers: 2, BatchSize: 8, QueueDepth: 8})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)
	capped := ts.URL + "/t/capped"
	setupTenantHTTP(t, capped)
	code, body := do(t, "POST", ts.URL+"/tenants", map[string]any{
		"name":  "capped",
		"quota": map[string]any{"maxPendingUpdates": 4},
	})
	if code != 200 {
		t.Fatalf("set quota: %d %v", code, body)
	}

	batch := make([]map[string]any, 10)
	for i := range batch {
		batch[i] = map[string]any{"stream": "F", "value": uint64(i)}
	}
	resp, out := doRaw(t, "POST", capped+"/update", batch)
	if resp.StatusCode != 429 {
		t.Fatalf("over-quota batch: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	_, st := do(t, "GET", capped+"/stats", nil)
	if st["rejected"].(float64) != 10 {
		t.Fatalf("rejected counter: %v", st["rejected"])
	}
	if st["updateCounts"].(map[string]any)["F"].(float64) != 0 {
		t.Fatalf("rejected batch leaked into counts: %v", st["updateCounts"])
	}
	if q := st["quota"].(map[string]any); q["maxPendingUpdates"].(float64) != 4 {
		t.Fatalf("quota not echoed in stats: %v", q)
	}

	// Under the cap the tenant still works, and the default tenant was
	// never throttled.
	if code, _ := do(t, "POST", capped+"/update", batch[:4]); code != 200 {
		t.Fatal("under-quota batch refused")
	}
	if code, _ := do(t, "POST", ts.URL+"/streams", map[string]any{"name": "H", "domain": 64}); code != 201 {
		t.Fatal("default tenant affected by capped quota")
	}
}

// TestHTTPWatchLifecycle exercises the standing-watch endpoints end to
// end: register, evaluate through the answer cache, alert transition,
// listing, and removal.
func TestHTTPWatchLifecycle(t *testing.T) {
	ts := testServer(t)
	ops := ts.URL + "/t/ops"
	setupTenantHTTP(t, ops)

	if code, body := do(t, "POST", ops+"/watches", map[string]any{"query": "q", "high": 50, "low": 10}); code != 201 {
		t.Fatalf("register watch: %d %v", code, body)
	}
	// Watch on a missing query is refused.
	if code, _ := do(t, "POST", ops+"/watches", map[string]any{"query": "nope", "high": 1}); code != 400 {
		t.Fatal("watch on unknown query accepted")
	}

	evaluate := func() map[string]any {
		t.Helper()
		code, body := do(t, "POST", ops+"/watches/evaluate", nil)
		if code != 200 {
			t.Fatalf("evaluate: %d %v", code, body)
		}
		rows := body["watches"].([]any)
		if len(rows) != 1 {
			t.Fatalf("want 1 watch, got %v", body)
		}
		return rows[0].(map[string]any)
	}
	if st := evaluate(); st["state"].(string) != "normal" {
		t.Fatalf("fresh watch state: %v", st)
	}
	pushN(t, ops, 3, 8) // self-join mass 64 ≥ High
	if st := evaluate(); st["state"].(string) != "alert" || st["transitions"].(float64) != 1 {
		t.Fatalf("watch did not raise: %v", evaluate())
	}
	if _, body := do(t, "GET", ops+"/watches", nil); len(body["watches"].([]any)) != 1 {
		t.Fatalf("watch listing: %v", body)
	}
	// Watches are tenant-scoped: another tenant sees none.
	if _, body := do(t, "GET", ts.URL+"/t/other/watches", nil); len(body["watches"].([]any)) != 0 {
		t.Fatalf("watches leaked across tenants: %v", body)
	}
	if code, _ := do(t, "DELETE", ops+"/watches/q", nil); code != 200 {
		t.Fatal("delete watch failed")
	}
	if code, _ := do(t, "DELETE", ops+"/watches/q", nil); code != 404 {
		t.Fatal("deleting a missing watch not 404")
	}
	if _, body := do(t, "GET", ops+"/watches", nil); len(body["watches"].([]any)) != 0 {
		t.Fatalf("watch survived deletion: %v", body)
	}
}

// TestHTTPTenantScopedSnapshot moves one tenant between servers over the
// wire while a second tenant stays home.
func TestHTTPTenantScopedSnapshot(t *testing.T) {
	src := testServer(t)
	setupTenantHTTP(t, src.URL+"/t/alice")
	setupTenantHTTP(t, src.URL+"/t/bob")
	pushN(t, src.URL+"/t/alice", 5, 6)

	resp, err := http.Get(src.URL + "/t/alice/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, code := readAll(t, resp)
	if code != 200 {
		t.Fatalf("tenant snapshot: %d %s", code, blob)
	}

	dst := testServer(t)
	resp2, err := http.Post(dst.URL+"/t/carol/restore", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, code := readAll(t, resp2)
	if code != 200 {
		t.Fatalf("tenant restore: %d %s", code, body)
	}
	_, ans := do(t, "GET", dst.URL+"/t/carol/answer?query=q", nil)
	if ans["estimate"].(float64) != 36 {
		t.Fatalf("restored tenant answers %v, want 36", ans["estimate"])
	}
	// Bob did not travel.
	if _, body := do(t, "GET", dst.URL+"/t/bob/streams", nil); len(body["streams"].([]any)) != 0 {
		t.Fatalf("tenant-scoped snapshot leaked bob: %v", body)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, int) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// TestCheckpointV1RestoresIntoDefault is the pre-tenant compatibility
// contract at the sketchd layer: a version-1 checkpoint payload —
// tenant-free predicates and a version-1 engine snapshot — restores
// into the default tenant and answers bit-identically, and the restored
// server's next checkpoint, a version-1 engine snapshot, carries the
// predicate itself.
func TestCheckpointV1RestoresIntoDefault(t *testing.T) {
	mk := func() (*server, *engine.Engine) {
		eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 9}, engine.IngestConfig{Workers: 2})
		return newServer(eng), eng
	}
	_, srcEng := mk()
	src := srcEng.Tenant(engine.DefaultTenant)
	if err := src.RegisterPredicate("low", engine.Predicate{Min: 0, Max: 31}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"F", "G"} {
		if err := src.DeclareStream(s, 64); err != nil {
			t.Fatal(err)
		}
	}
	err := src.RegisterQuery(engine.QuerySpec{
		Name: "q", Agg: engine.Count,
		Left:  engine.Side{Stream: "F", Predicate: "low"},
		Right: engine.Side{Stream: "G"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := src.IngestBatch("F", []stream.Update{stream.Insert(uint64(i % 64))}); err != nil {
			t.Fatal(err)
		}
		if err := src.IngestBatch("G", []stream.Update{stream.Insert(uint64((i * 7) % 64))}); err != nil {
			t.Fatal(err)
		}
	}
	var engSnap bytes.Buffer
	if err := srcEng.Snapshot(&engSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(engSnap.Bytes(), []byte(`"version":1`)) {
		t.Fatalf("fixture is not a v1 engine snapshot: %.80s", engSnap.Bytes())
	}
	// Assemble the payload exactly as a pre-tenant sketchd wrote it:
	// version 1, predicates without tenant fields, and an engine snapshot
	// that does not carry them.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(engSnap.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "predicates")
	oldSnap, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	v1 := fmt.Sprintf(`{"version":1,"predicates":[{"name":"low","min":0,"max":31}],"engine":%s}`, oldSnap)

	dstSrv, dstEng := mk()
	if err := dstSrv.node.ReadCheckpoint(strings.NewReader(v1)); err != nil {
		t.Fatalf("v1 checkpoint refused: %v", err)
	}
	want, err := src.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dstEng.Tenant(engine.DefaultTenant).Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("v1 restore diverged: %+v vs %+v", got, want)
	}
	// The state landed in the default tenant, nowhere else.
	if tenants := dstEng.Stats().Tenants; len(tenants) != 1 || tenants[engine.DefaultTenant].Tenant != engine.DefaultTenant {
		t.Fatalf("v1 restore created tenants %v", tenants)
	}
	// And the restored server re-checkpoints as the engine snapshot
	// sketchd saves, with the predicate in it.
	var buf2 bytes.Buffer
	if err := dstEng.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	var cp struct {
		Version    int                         `json:"version"`
		Predicates map[string]engine.Predicate `json:"predicates"`
	}
	if err := json.Unmarshal(buf2.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Version != 1 || len(cp.Predicates) != 1 || cp.Predicates["low"] != (engine.Predicate{Min: 0, Max: 31}) {
		t.Fatalf("re-checkpoint version %d, predicates %+v", cp.Version, cp.Predicates)
	}
}
