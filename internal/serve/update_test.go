package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// testNode is a node (engine behind the serving surface) with F and G
// declared over domain 1024 and the COUNT query q, in the default
// tenant and in tenant "acme".
type testNode struct {
	eng *engine.Engine
	srv *serve.Server
}

func newTestNode(t *testing.T) *testNode {
	t.Helper()
	n := newEmptyNode(t)
	for _, tenant := range []string{engine.DefaultTenant, "acme"} {
		tn := n.eng.Tenant(tenant)
		for _, name := range []string{"F", "G"} {
			if err := tn.DeclareStream(name, 1024); err != nil {
				t.Fatal(err)
			}
		}
		q := engine.QuerySpec{Name: "q", Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}
		if err := tn.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// newEmptyNode is a node whose engine has nothing declared yet.
func newEmptyNode(t *testing.T) *testNode {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 64, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.StopIngest)
	return &testNode{eng: eng, srv: serve.New(cluster.NewNode(eng))}
}

// post sends body to path with the given Content-Type and optional
// Idempotency-Key, and returns the status and decoded JSON response.
func (n *testNode) post(t *testing.T, path, contentType string, body []byte, key string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	n.srv.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("POST %s: response %q is not JSON: %v", path, rec.Body.String(), err)
	}
	return rec.Code, out
}

// counts flushes and returns the tenant's per-stream update counts.
func (n *testNode) counts(tenant string) map[string]int64 {
	n.eng.Flush()
	return n.eng.Tenant(tenant).Stats().UpdateCounts
}

// sketches returns the marshaled synopses of tenant's query q.
func (n *testNode) sketches(t *testing.T, tenant string) [2]string {
	t.Helper()
	qs, err := n.eng.Tenant(tenant).QuerySketches("q")
	if err != nil {
		t.Fatal(err)
	}
	var out [2]string
	for i, sk := range []*core.HashSketch{qs.Left, qs.Right} {
		b, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

var testGroups = []stream.Group{
	{Name: "F", Updates: []stream.Update{{Value: 3, Weight: 1}, {Value: 700, Weight: 2}, {Value: 3, Weight: -1}}},
	{Name: "G", Updates: []stream.Update{{Value: 3, Weight: 5}}},
}

func groupsBody(t *testing.T, groups []stream.Group) []byte {
	t.Helper()
	b, err := wire.AppendGroups(nil, groups)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUpdateGroupsBodyMatchesJSON: the same request as a groups body and
// as a JSON body gets the same response, the same Idempotency-Key
// dedupe and the same synopses, byte for byte, in the URL's tenant.
func TestUpdateGroupsBodyMatchesJSON(t *testing.T) {
	jsonBody := []byte(`[{"stream":"F","value":3},{"stream":"F","value":700,"weight":2},{"stream":"F","value":3,"weight":-1},{"stream":"G","value":3,"weight":5}]`)
	byJSON, byGroups := newTestNode(t), newTestNode(t)
	for i, path := range []string{"/update", "/t/acme/update"} {
		tenant := engine.DefaultTenant
		if path != "/update" {
			tenant = "acme"
		}
		key := fmt.Sprintf("c:%d", i)
		for attempt, wantDup := range []bool{false, true} {
			code, jr := byJSON.post(t, path, "application/json", jsonBody, key)
			gcode, gr := byGroups.post(t, path, wire.GroupsContentType, groupsBody(t, testGroups), key)
			if code != http.StatusOK || gcode != code || gr["applied"] != jr["applied"] || gr["applied"] != float64(4) {
				t.Fatalf("%s attempt %d: JSON %d %v, groups %d %v", path, attempt, code, jr, gcode, gr)
			}
			if dup := gr["deduplicated"] == true; dup != wantDup || (jr["deduplicated"] == true) != wantDup {
				t.Fatalf("%s attempt %d: deduplicated JSON %v groups %v, want %v", path, attempt, jr["deduplicated"], gr["deduplicated"], wantDup)
			}
		}
		if got, want := byGroups.counts(tenant), byJSON.counts(tenant); got["F"] != 3 || got["G"] != 1 || got["F"] != want["F"] || got["G"] != want["G"] {
			t.Fatalf("%s: groups counts %v, JSON counts %v", path, got, want)
		}
		if byGroups.sketches(t, tenant) != byJSON.sketches(t, tenant) {
			t.Fatalf("%s: groups-body synopses differ from JSON-body synopses", path)
		}
	}
}

// TestUpdateConcurrentIdempotencyKeyAppliesOnce is the HTTP twin of
// the node's concurrent same-key test: two POST /update requests with
// one Idempotency-Key race each other, and in every round both answer
// 200, exactly one of them not deduplicated.
func TestUpdateConcurrentIdempotencyKeyAppliesOnce(t *testing.T) {
	n := newTestNode(t)
	const rounds = 500
	body := []byte(`[{"stream":"F","value":3}]`)
	for r := 0; r < rounds; r++ {
		key := fmt.Sprintf("racer:%d", r)
		start := make(chan struct{})
		recs := [2]*httptest.ResponseRecorder{httptest.NewRecorder(), httptest.NewRecorder()}
		var wg sync.WaitGroup
		for _, rec := range recs {
			req := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body))
			req.Header.Set("Idempotency-Key", key)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n.srv.ServeHTTP(rec, req)
			}()
		}
		close(start)
		wg.Wait()
		fresh := 0
		for _, rec := range recs {
			var out map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil || out["applied"] != float64(1) {
				t.Fatalf("round %d: %d %s", r, rec.Code, rec.Body.String())
			}
			if out["deduplicated"] != true {
				fresh++
			}
		}
		if fresh != 1 {
			t.Fatalf("round %d: %d of 2 concurrent requests with one Idempotency-Key applied, want 1", r, fresh)
		}
	}
	if got := n.counts(engine.DefaultTenant)["F"]; got != rounds {
		t.Fatalf("F counted %d updates after %d rounds, want %d", got, rounds, rounds)
	}
}

// TestUpdateGroupsBodyRefusals: a malformed body, an unknown stream and
// a URL naming two tenants are 400s that apply nothing, and an unknown
// stream is named in the response as it is for JSON.
func TestUpdateGroupsBodyRefusals(t *testing.T) {
	n := newTestNode(t)
	good := groupsBody(t, testGroups)
	unknown := groupsBody(t, []stream.Group{testGroups[0], {Name: "X", Updates: []stream.Update{{Value: 1, Weight: 1}}}})
	for _, c := range []struct {
		name, path string
		body       []byte
		stream     string
	}{
		{"truncated body", "/update", good[:len(good)-1], ""},
		{"trailing bytes", "/update", append(append([]byte{}, good...), 0), ""},
		{"empty body", "/update", nil, ""},
		{"JSON under the groups type", "/update", []byte(`[{"stream":"F","value":1}]`), ""},
		{"unknown stream", "/update", unknown, "X"},
		{"conflicting tenants", "/t/acme/update?tenant=other", good, ""},
	} {
		code, out := n.post(t, c.path, wire.GroupsContentType, c.body, "")
		if code != http.StatusBadRequest || out["error"] == nil {
			t.Errorf("%s: %d %v, want a 400 with an error", c.name, code, out)
		}
		if got, _ := out["stream"].(string); got != c.stream {
			t.Errorf("%s: response names stream %q, want %q", c.name, got, c.stream)
		}
	}
	for _, tenant := range []string{engine.DefaultTenant, "acme"} {
		if c := n.counts(tenant); c["F"] != 0 || c["G"] != 0 {
			t.Fatalf("refused bodies applied updates in %s: %v", tenant, c)
		}
	}
}

// TestUpdateJSONBodyUnchanged: a JSON body, with or without a
// Content-Type, is decoded as before, malformed JSON included.
func TestUpdateJSONBodyUnchanged(t *testing.T) {
	n := newTestNode(t)
	for _, ct := range []string{"application/json", "", "text/plain"} {
		code, out := n.post(t, "/update", ct, []byte(`{"stream":"F","value":9}`), "")
		if code != http.StatusOK || out["applied"] != float64(1) {
			t.Fatalf("Content-Type %q: %d %v, want 200 applied 1", ct, code, out)
		}
	}
	code, out := n.post(t, "/update", "application/json", []byte(`[{"stream":"F","value":1},{"stream":"F","value":2}]`), "")
	if code != http.StatusOK || out["applied"] != float64(2) {
		t.Fatalf("JSON array: %d %v", code, out)
	}
	code, out = n.post(t, "/update", "application/json", []byte(`{"stream":`), "")
	if code != http.StatusBadRequest || out["error"] != "expected a JSON update object or array of them" {
		t.Fatalf("malformed JSON: %d %v", code, out)
	}
	code, out = n.post(t, "/update", "application/json", []byte(`{"stream":"X","value":1}`), "")
	if code != http.StatusBadRequest || out["stream"] != "X" {
		t.Fatalf("unknown stream: %d %v", code, out)
	}
	if c := n.counts(engine.DefaultTenant); c["F"] != 5 {
		t.Fatalf("F count %d, want 5", c["F"])
	}
}

// countingReader counts the bytes read from it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestUpdateGroupsBodyTooLarge: a groups body over the SKSP frame cap is
// a 413 that applies nothing, and the node stops reading it at the cap:
// at once when its Content-Length declares it, else one byte past the
// cap.
func TestUpdateGroupsBodyTooLarge(t *testing.T) {
	n := newTestNode(t)
	for _, declared := range []bool{true, false} {
		size := int64(2 * wire.MaxFramePayload)
		body := &countingReader{r: io.LimitReader(zeros{}, size)}
		req := httptest.NewRequest(http.MethodPost, "/update", body)
		req.Header.Set("Content-Type", wire.GroupsContentType)
		req.ContentLength = -1
		if declared {
			req.ContentLength = size
		}
		rec := httptest.NewRecorder()
		n.srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds") {
			t.Fatalf("declared %v: %d %s, want a 413", declared, rec.Code, rec.Body)
		}
		limit := int64(wire.MaxFramePayload + 1)
		if declared {
			limit = 0
		}
		if body.n > limit {
			t.Fatalf("declared %v: read %d bytes of an oversized body, want at most %d", declared, body.n, limit)
		}
	}
	if c := n.counts(engine.DefaultTenant); c["F"] != 0 || c["G"] != 0 {
		t.Fatalf("oversized bodies applied updates: %v", c)
	}
}

// TestUpdateJSONBodyTooLarge: a valid JSON array over the SKSP frame cap
// is a 413 that applies nothing, on a node and on a merger in front of
// one, as a groups body is.
func TestUpdateJSONBodyTooLarge(t *testing.T) {
	var body bytes.Buffer
	body.WriteByte('[')
	for i := 0; body.Len() <= wire.MaxFramePayload; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"stream":"F","value":%d}`, i%1024)
	}
	body.WriteByte(']')

	n := newTestNode(t)
	shard := httptest.NewServer(n.srv)
	defer shard.Close()
	m, err := cluster.NewMerger(cluster.Config{Shards: []cluster.Shard{{Name: "s0", Addr: shard.URL}}}, cluster.MergerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*serve.Server{"node": n.srv, "merger": serve.New(m)} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body.Bytes())))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds") {
			t.Fatalf("%s: %d %s, want a 413", name, rec.Code, rec.Body)
		}
	}
	if c := n.counts(engine.DefaultTenant); c["F"] != 0 {
		t.Fatalf("oversized JSON bodies applied updates: %v", c)
	}
}
