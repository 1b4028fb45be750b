package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// pipelinedServer boots an httptest server over an engine whose ingest
// pipeline has room for whole test batches.
func pipelinedServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 7}, engine.IngestConfig{Workers: 2, BatchSize: 64, QueueDepth: 64})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestUpdatePartial429Atomic is the headline regression: a multi-stream
// batch that trips the tenant's queue-share quota on a LATER stream
// group must apply NOTHING. The old handler admitted groups one at a
// time, so a 429 could leave earlier groups applied — and every
// retrying client treats 429 as "nothing was applied, send the whole
// batch again", which double-counted the admitted prefix on retry.
func TestUpdatePartial429Atomic(t *testing.T) {
	ts, eng := pipelinedServer(t)
	capped := ts.URL + "/t/capped"
	setupTenantHTTP(t, capped)
	if code, body := do(t, "POST", ts.URL+"/tenants", map[string]any{
		"name":  "capped",
		"quota": map[string]any{"maxPendingUpdates": 150},
	}); code != 200 {
		t.Fatalf("set quota: %d %v", code, body)
	}

	// 100 F updates then 100 G updates: F alone fits the quota of 150,
	// the whole request does not. Pre-fix, F was admitted before G's
	// quota check fired.
	batch := make([]map[string]any, 0, 200)
	for i := 0; i < 100; i++ {
		batch = append(batch, map[string]any{"stream": "F", "value": uint64(i % 64)})
	}
	for i := 0; i < 100; i++ {
		batch = append(batch, map[string]any{"stream": "G", "value": uint64(i % 64)})
	}
	resp, out := doRaw(t, "POST", capped+"/update", batch)
	if resp.StatusCode != 429 {
		t.Fatalf("over-quota batch: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	eng.Flush()
	_, st := do(t, "GET", capped+"/stats", nil)
	counts := st["updateCounts"].(map[string]any)
	if f, g := counts["F"].(float64), counts["G"].(float64); f != 0 || g != 0 {
		t.Fatalf("429 left F=%v G=%v updates applied, want 0/0 (partial admission)", f, g)
	}
	// The whole request counts as rejected — not just the group that
	// tripped the quota.
	if st["rejected"].(float64) != 200 {
		t.Fatalf("rejected = %v, want 200 (the entire request)", st["rejected"])
	}

	// The same batch is retryable once the quota allows it: 429 really
	// meant "nothing applied".
	if code, body := do(t, "POST", ts.URL+"/tenants", map[string]any{
		"name":  "capped",
		"quota": map[string]any{"maxPendingUpdates": 1000},
	}); code != 200 {
		t.Fatalf("raise quota: %d %v", code, body)
	}
	if code, body := do(t, "POST", capped+"/update", batch); code != 200 || body["applied"].(float64) != 200 {
		t.Fatalf("retry after quota raise: %d %v", code, body)
	}
	eng.Flush()
	_, st = do(t, "GET", capped+"/stats", nil)
	counts = st["updateCounts"].(map[string]any)
	if f, g := counts["F"].(float64), counts["G"].(float64); f != 100 || g != 100 {
		t.Fatalf("retried batch applied F=%v G=%v, want 100/100", f, g)
	}
}

// TestUpdateIdempotencyKey: the HTTP twin of SKSP's (clientID, seq)
// dedupe. A replayed key answers from the window without re-applying;
// fresh keys apply normally; malformed keys are caller bugs.
func TestUpdateIdempotencyKey(t *testing.T) {
	ts, eng := pipelinedServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})

	send := func(key string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/update", strings.NewReader(
			`[{"stream":"F","value":1},{"stream":"F","value":2}]`))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := jsonDecode(resp.Body, &out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	resp, out := send("loader-1:7")
	if resp.StatusCode != 200 || out["applied"].(float64) != 2 || out["deduplicated"] != nil {
		t.Fatalf("first send: %d %v", resp.StatusCode, out)
	}
	// The retry (same key) is answered from the window.
	resp, out = send("loader-1:7")
	if resp.StatusCode != 200 || out["applied"].(float64) != 2 || out["deduplicated"] != true {
		t.Fatalf("replay: %d %v", resp.StatusCode, out)
	}
	// A fresh seq applies again; a different client's seq 7 is distinct.
	if resp, out = send("loader-1:8"); out["deduplicated"] != nil {
		t.Fatalf("fresh seq deduplicated: %d %v", resp.StatusCode, out)
	}
	if resp, out = send("loader-2:7"); out["deduplicated"] != nil {
		t.Fatalf("other client deduplicated: %d %v", resp.StatusCode, out)
	}
	eng.Flush()
	if n := streamCount(t, ts, "F"); n != 6 {
		t.Fatalf("F = %v updates, want 6 (three applies, one dedupe)", n)
	}

	for _, bad := range []string{"nocolon", ":7", "c:", "c:notanumber", "c:-1"} {
		if resp, _ := send(bad); resp.StatusCode != 400 {
			t.Fatalf("malformed key %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// jsonDecode is a tiny helper so send() above can live without the
// do() wrapper (it needs the raw *http.Response for headers).
func jsonDecode(r io.Reader, v any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// dropProxy forwards TCP to backend. While swallow is set, it lets the
// backend fully process one request, then cuts the connection without
// forwarding the response — the classic "applied but the client never
// heard" failure that makes naive retries double-apply.
func dropProxy(t *testing.T, backend string, swallow *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				b, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer b.Close()
				go func() { _, _ = io.Copy(b, c) }()
				if swallow.CompareAndSwap(true, false) {
					// Wait for the backend's response — proof the request
					// was fully processed — then drop everything.
					one := make([]byte, 1)
					_, _ = b.Read(one)
					return
				}
				_, _ = io.Copy(c, b)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestRetryDoubleApplyThroughProxy demonstrates the double-apply the
// Idempotency-Key exists to prevent. The proxy delivers the request
// and swallows the response; the client's retry is a SECOND copy of
// the same batch. Without a key the server applies both (F counts
// twice); with a key the replay is answered from the dedupe window and
// applies once.
func TestRetryDoubleApplyThroughProxy(t *testing.T) {
	ts, eng := pipelinedServer(t)
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "F", "domain": 64})
	do(t, "POST", ts.URL+"/streams", map[string]any{"name": "G", "domain": 64})

	var swallow atomic.Bool
	proxyAddr := dropProxy(t, ts.Listener.Addr().String(), &swallow)
	// One connection per request: a swallowed response must not poison a
	// kept-alive connection for the next attempt.
	httpc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	sendOnce := func(body, key string) (*http.Response, error) {
		req, err := http.NewRequest("POST", "http://"+proxyAddr+"/update", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		return httpc.Do(req)
	}
	// sendRetrying is what every real client does: on a transport error
	// (no response received), send the whole batch again.
	sendRetrying := func(body, key string) {
		t.Helper()
		for attempt := 0; attempt < 3; attempt++ {
			resp, err := sendOnce(body, key)
			if err != nil {
				continue // response lost; retry the batch
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("attempt %d: status %d", attempt, resp.StatusCode)
			}
			return
		}
		t.Fatal("no successful attempt")
	}

	// Without a key: the swallowed first attempt was applied, the retry
	// applies again — 20 updates land from a 10-update batch.
	swallow.Store(true)
	sendRetrying(`[`+nUpdates("F", 10)+`]`, "")
	eng.Flush()
	if n := streamCount(t, ts, "F"); n != 20 {
		t.Fatalf("F = %v updates from a 10-update batch, want 20 (the double-apply this test documents)", n)
	}

	// With a key: same drop, but the retry is deduped — exactly 10.
	swallow.Store(true)
	sendRetrying(`[`+nUpdates("G", 10)+`]`, "retrier:1")
	eng.Flush()
	if n := streamCount(t, ts, "G"); n != 10 {
		t.Fatalf("G = %v updates, want exactly 10 (idempotent retry)", n)
	}
}

// nUpdates renders n single-update JSON objects for stream s.
func nUpdates(s string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf(`{"stream":%q,"value":%d}`, s, i%64)
	}
	return strings.Join(parts, ",")
}

// streamListener boots the SKSP listener over a pipelined engine and
// returns its address plus the server for counter inspection.
func streamListener(t *testing.T, eng *engine.Engine) (*serve.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := newListener(eng, ln)
	done := make(chan struct{})
	go func() { defer close(done); _ = sv.Serve() }()
	t.Cleanup(func() { sv.Shutdown(); <-done })
	return sv, ln.Addr().String()
}

// dialStream opens an SKSP session to addr.
func dialStream(t *testing.T, addr string) *wire.Session {
	t.Helper()
	s, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamReplayDedupe speaks raw SKSP: the same (clientID, seq)
// DATA frame sent twice — on one connection, then again after a
// reconnect — applies exactly once, and each replay is answered with a
// duplicate ACK carrying the original count.
func TestStreamReplayDedupe(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 7}, engine.IngestConfig{Workers: 1, BatchSize: 16, QueueDepth: 16})
	def := eng.Tenant(engine.DefaultTenant)
	if err := def.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	_, addr := streamListener(t, eng)

	frame := &wire.Data{
		ClientID: "raw-1",
		Seq:      42,
		Groups:   []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 5, Weight: 1}, {Value: 6, Weight: 1}}}},
	}
	s := dialStream(t, addr)
	if a, err := s.Send(frame); err != nil || a.Seq != 42 || a.Applied != 2 || a.Duplicate {
		t.Fatalf("first ack %+v %v", a, err)
	}
	// Same connection replay.
	if a, err := s.Send(frame); err != nil || a.Applied != 2 || !a.Duplicate {
		t.Fatalf("same-conn replay ack %+v %v", a, err)
	}
	s.Close()
	// Reconnect replay — the disconnect story.
	s2 := dialStream(t, addr)
	defer s2.Close()
	if a, err := s2.Send(frame); err != nil || a.Applied != 2 || !a.Duplicate {
		t.Fatalf("reconnect replay ack %+v %v", a, err)
	}

	eng.Flush()
	if n := def.Stats().UpdateCounts["F"]; n != 2 {
		t.Fatalf("F = %d updates after three transmissions, want 2 (exactly once)", n)
	}
}

// TestStreamDrainKeepsAckedFrames: shutdown() after an ACK must leave
// the acknowledged updates in the engine once flushed — drain loses
// nothing that was acknowledged.
func TestStreamDrainKeepsAckedFrames(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 128, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2, BatchSize: 8, QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	def := eng.Tenant(engine.DefaultTenant)
	if err := def.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := newListener(eng, ln)
	done := make(chan struct{})
	go func() { defer close(done); _ = sv.Serve() }()

	s := dialStream(t, ln.Addr().String())
	const batches = 20
	var want int64
	for i := 0; i < batches; i++ {
		ack, err := s.Send(&wire.Data{ClientID: "drain", Seq: uint64(i + 1), Groups: []stream.Group{
			{Name: "F", Updates: []stream.Update{{Value: uint64(i % 64), Weight: 1}}},
		}})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		want += ack.Applied
	}
	// The shutdown sequence main.go runs: drain the listener, then the
	// ingest pipeline.
	sv.Shutdown()
	<-done
	eng.Flush()
	eng.StopIngest()
	s.Close()

	if n := def.Stats().UpdateCounts["F"]; n != want {
		t.Fatalf("F = %d after drain, want %d (every ACKed update kept)", n, want)
	}
}
