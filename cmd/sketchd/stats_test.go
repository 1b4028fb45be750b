package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// postJSON posts body as JSON and returns the status; safe off the test
// goroutine.
func postJSON(url string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestStatsReconcileUnderIngest: /stats renders the ingest counters and
// every tenant's pending gauge from one quiesced read, so while writers
// on several goroutines post multi-stream batches into several tenants,
// every read reconciles exactly — enqueued == applied + unrouted, and no
// tenant has an update pending.
func TestStatsReconcileUnderIngest(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 3, Buckets: 64, Seed: 5}, engine.IngestConfig{Workers: 2, BatchSize: 4, QueueDepth: 64})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	bases := []string{ts.URL, ts.URL + "/t/a", ts.URL + "/t/b"}
	for _, base := range bases {
		setupTenantHTTP(t, base)
		// U has no query: its updates are counted unrouted.
		if code, body := do(t, "POST", base+"/streams", map[string]any{"name": "U", "domain": 1024}); code != 201 {
			t.Fatalf("declare U under %s: %d %v", base, code, body)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := bases[w%len(bases)]
			for i := 0; i < 60; i++ {
				var batch []map[string]any
				for k, s := range []string{"F", "U", "G"} {
					for j := 0; j <= (i+k)%5; j++ {
						batch = append(batch, map[string]any{"stream": s, "value": (i*31 + j + w) % 1024})
					}
				}
				// 429 sheds a whole request; only the reads are under test.
				if code, err := postJSON(base+"/update", batch); err != nil || (code != 200 && code != 429) {
					t.Errorf("writer %d post %d: %d %v", w, i, code, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }() // no writer outlives the test
	for reads := 0; ; reads++ {
		code, st := do(t, "GET", ts.URL+"/stats", nil)
		if code != 200 {
			t.Fatalf("stats: %d %v", code, st)
		}
		in := st["ingest"].(map[string]any)
		enq, app, unr := in["updatesEnqueued"].(float64), in["updatesApplied"].(float64), in["updatesUnrouted"].(float64)
		if enq != app+unr {
			t.Fatalf("read %d: updatesEnqueued %v != updatesApplied %v + updatesUnrouted %v", reads, enq, app, unr)
		}
		for name, tst := range st["tenants"].(map[string]any) {
			if p := tst.(map[string]any)["pendingUpdates"].(float64); p != 0 {
				t.Fatalf("read %d: tenant %q has %v updates pending", reads, name, p)
			}
		}
		select {
		case <-done:
			if enq == 0 {
				t.Fatal("no update ingested")
			}
			return
		default:
		}
	}
}

// TestTenantsListFromOneSnapshot: GET /tenants renders every record from
// one read, so tenants declared concurrently with the listing are either
// listed whole — under their own name — or not at all.
func TestTenantsListFromOneSnapshot(t *testing.T) {
	ts := testServer(t)
	const declarers, each = 4, 50
	declared := map[string]bool{engine.DefaultTenant: true}
	for i := 0; i < declarers*each; i++ {
		declared[fmt.Sprintf("t%d", i)] = true
	}
	var wg sync.WaitGroup
	for d := 0; d < declarers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d * each; i < (d+1)*each; i++ {
				req := map[string]any{"name": fmt.Sprintf("t%d", i), "quota": map[string]any{"maxPendingUpdates": 100 + i}}
				if code, err := postJSON(ts.URL+"/tenants", req); err != nil || code != 200 {
					t.Errorf("declare t%d: %d %v", i, code, err)
					return
				}
			}
		}(d)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more listing, after the last declaration
		default:
		}
		code, body := do(t, "GET", ts.URL+"/tenants", nil)
		if code != 200 {
			t.Fatalf("GET /tenants: %d %v", code, body)
		}
		var names []string
		for _, rec := range body["tenants"].([]any) {
			name, _ := rec.(map[string]any)["tenant"].(string)
			if !declared[name] {
				t.Fatalf("GET /tenants listed a record for tenant %q: %v", name, rec)
			}
			names = append(names, name)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("GET /tenants not sorted by name: %v", names)
		}
		if finished && len(names) != declarers*each {
			t.Fatalf("final listing names %d tenants, want %d", len(names), declarers*each)
		}
	}
}

// TestStreamFrameLatency: the SKSP listener times every frame it
// handles — ACK, duplicate ACK, REJECT and ERROR alike — so /stats
// stream.frameLatency.count equals stream.frames, in the same shape as
// updateLatency.
func TestStreamFrameLatency(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 3, Buckets: 64, Seed: 5}, engine.IngestConfig{Workers: 1})
	if err := eng.Tenant(engine.DefaultTenant).DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	capped := eng.Tenant("capped")
	if err := capped.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetQuota("capped", engine.Quota{MaxPendingUpdates: 1}); err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sksp := srv.Listen(ln, 1)
	served := make(chan struct{})
	go func() { defer close(served); _ = sksp.Serve() }()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w, rd := wire.NewWriter(nc), wire.NewReader(nc)
	if err := w.WriteHeader(); err != nil || w.Flush() != nil {
		t.Fatal("header write failed")
	}
	if err := rd.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	two := []stream.Update{{Value: 1, Weight: 1}, {Value: 2, Weight: 1}}
	for _, tc := range []struct {
		frame wire.Data
		want  wire.FrameType
	}{
		{wire.Data{ClientID: "lat", Seq: 1, Groups: []stream.Group{{Name: "F", Updates: two}}}, wire.FrameAck},
		{wire.Data{ClientID: "lat", Seq: 1, Groups: []stream.Group{{Name: "F", Updates: two}}}, wire.FrameAck}, // duplicate
		{wire.Data{ClientID: "lat", Seq: 2, Tenant: "capped", Groups: []stream.Group{{Name: "F", Updates: two}}}, wire.FrameReject},
		{wire.Data{ClientID: "lat", Seq: 3, Groups: []stream.Group{{Name: "nope", Updates: two}}}, wire.FrameError},
	} {
		if err := w.WriteData(&tc.frame); err != nil || w.Flush() != nil {
			t.Fatal("write failed")
		}
		if ft, _, err := rd.Next(); err != nil || ft != tc.want {
			t.Fatalf("seq %d: response type %d err %v, want type %d", tc.frame.Seq, ft, err, tc.want)
		}
	}
	// A frame is timed once its response is flushed; the drain waits for
	// every handler, so the figures below are final.
	nc.Close()
	sksp.Shutdown()
	<-served

	_, st := do(t, "GET", ts.URL+"/stats", nil)
	s := st["stream"].(map[string]any)
	if s["frames"].(float64) != 4 || s["duplicates"].(float64) != 1 || s["rejected"].(float64) != 1 || s["errors"].(float64) != 1 {
		t.Fatalf("stream counters: %v", s)
	}
	lat := s["frameLatency"].(map[string]any)
	if lat["count"] != s["frames"] {
		t.Fatalf("frameLatency.count = %v, frames = %v", lat["count"], s["frames"])
	}
	upd := st["updateLatency"].(map[string]any)
	if len(lat) != len(upd) {
		t.Fatalf("frameLatency keys %v differ from updateLatency keys %v", lat, upd)
	}
	for k := range upd {
		if _, ok := lat[k]; !ok {
			t.Fatalf("frameLatency lacks %q: %v", k, lat)
		}
	}
	if upd["count"].(float64) != 0 {
		t.Fatalf("SKSP frames counted as /update requests: %v", upd)
	}
}
