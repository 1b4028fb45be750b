package main

import (
	"net/http/httptest"
	"sync"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
)

// TestConcurrentHTTPUpdates hammers /update from many goroutines while
// /answer and /stats race with them, then reconciles exactly: every
// update inserts value 0, so the COUNT(F ⋈ G) estimate must equal nF·nG
// precisely and any lost update would change the product, and the
// server's /update latency histogram holds exactly one sample per POST.
func TestConcurrentHTTPUpdates(t *testing.T) {
	// Queues deep enough that a CPU-starved worker does not make the
	// writers see 429s: this test reconciles counts, not load shedding
	// (TestUpdateBackpressure429 covers that).
	eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 7}, engine.IngestConfig{Workers: 4, BatchSize: 32, QueueDepth: 64})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	for _, s := range []string{"F", "G"} {
		if code, _ := do(t, "POST", ts.URL+"/streams", map[string]any{"name": s, "domain": 64}); code != 201 {
			t.Fatalf("declare %s: %d", s, code)
		}
	}
	if code, body := do(t, "POST", ts.URL+"/queries", map[string]any{
		"name": "q", "agg": "COUNT",
		"left":  map[string]any{"stream": "F"},
		"right": map[string]any{"stream": "G"},
	}); code != 201 {
		t.Fatalf("register query: %d %v", code, body)
	}

	const (
		writers      = 6
		postsEach    = 25
		perBatchEach = 7 // updates per stream per POST body
	)
	// Each POST carries a mixed F/G batch, exercising the server's
	// group-by-stream decode in front of the pipeline.
	batch := make([]map[string]any, 0, 2*perBatchEach)
	for i := 0; i < perBatchEach; i++ {
		batch = append(batch,
			map[string]any{"stream": "F", "value": 0, "weight": 1},
			map[string]any{"stream": "G", "value": 0, "weight": 1},
		)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < postsEach; p++ {
				code, body := do(t, "POST", ts.URL+"/update", batch)
				if code != 200 {
					t.Errorf("update: %d %v", code, body)
					return
				}
			}
		}()
	}
	// Readers race with the writers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				path := "/answer?query=q"
				if r == 1 {
					path = "/stats"
				}
				if code, body := do(t, "GET", ts.URL+path, nil); code != 200 {
					t.Errorf("GET %s: %d %v", path, code, body)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if code, _ := do(t, "POST", ts.URL+"/flush", nil); code != 200 {
		t.Fatalf("flush: %d", code)
	}
	perStream := float64(writers * postsEach * perBatchEach)
	code, body := do(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	counts := body["updateCounts"].(map[string]any)
	if counts["F"].(float64) != perStream || counts["G"].(float64) != perStream {
		t.Fatalf("update counts %v, want %v per stream", counts, perStream)
	}
	ingest, ok := body["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing ingest counters: %v", body)
	}
	if applied := ingest["updatesApplied"].(float64); applied != 2*perStream {
		t.Fatalf("ingest counters applied=%v, want %v", applied, 2*perStream)
	}
	// The server times every /update request it handled, once each.
	if n := body["updateLatency"].(map[string]any)["count"].(float64); n != writers*postsEach {
		t.Fatalf("updateLatency.count = %v, want %d (one per POST)", n, writers*postsEach)
	}
	code, body = do(t, "GET", ts.URL+"/answer?query=q", nil)
	if code != 200 {
		t.Fatalf("answer: %d %v", code, body)
	}
	if est := body["estimate"].(float64); est != perStream*perStream {
		t.Fatalf("final estimate %v, want exactly %v (lost updates?)", est, perStream*perStream)
	}
}
