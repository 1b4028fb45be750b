package loadtest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRetryAfterDateFloorsBackoff drives the full retry loop: a server
// that 429s once with an HTTP-date Retry-After ~1s out must hold the
// client back at least that long — the pre-fix client parsed the date
// to 0 and re-sent immediately.
func TestRetryAfterDateFloorsBackoff(t *testing.T) {
	var mu sync.Mutex
	var times []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := len(times)
		times = append(times, time.Now())
		mu.Unlock()
		if n == 0 {
			w.Header().Set("Retry-After", time.Now().Add(1100*time.Millisecond).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"applied": 1})
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Backoff: fastBackoff()}
	out, err := c.SendUpdates(context.Background(), []Update{{Stream: "F", Value: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts != 2 || out.Rejected429 != 1 {
		t.Fatalf("attempts=%d rejected=%d, want 2/1", out.Attempts, out.Rejected429)
	}
	mu.Lock()
	gap := times[1].Sub(times[0])
	mu.Unlock()
	// The date floor rounds down to whole-second HTTP-date resolution,
	// so ~1.1s requested ⇒ at least ~100ms observed even in the worst
	// truncation case; the pre-fix client retried in ~1ms.
	if gap < 100*time.Millisecond {
		t.Fatalf("retry after %v; HTTP-date Retry-After was not honored as a floor", gap)
	}
}

// TestIdemSourceKeys checks the key format and that ForTenant copies
// share one sequence — two tenant-scoped clients must never mint the
// same key.
func TestIdemSourceKeys(t *testing.T) {
	s := NewIdemSource("h1")
	if got := s.Next(); got != "h1:1" {
		t.Fatalf("first key %q, want h1:1", got)
	}
	base := &Client{BaseURL: "http://x", Idem: s}
	a, b := base.ForTenant("t0"), base.ForTenant("t1")
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		for _, c := range []*Client{a, b} {
			k := c.Idem.Next()
			if seen[k] {
				t.Fatalf("duplicate key %q across tenant copies", k)
			}
			seen[k] = true
		}
	}
	if NewIdemSource("").clientID == NewIdemSource("").clientID {
		t.Fatal("two generated client IDs collided")
	}
}

// TestSendUpdatesIdempotencyHeader: every attempt of one logical batch
// carries the SAME key (that identity across retries is the fix), and
// distinct batches carry distinct keys.
func TestSendUpdatesIdempotencyHeader(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		n := len(keys)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"applied": 1, "deduplicated": n == 2})
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Backoff: fastBackoff(), Idem: NewIdemSource("h")}
	out, err := c.SendUpdates(context.Background(), []Update{{Stream: "F", Value: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Deduplicated {
		t.Fatal("deduplicated flag from the ack was not surfaced")
	}
	if _, err := c.SendUpdates(context.Background(), []Update{{Stream: "F", Value: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 3 {
		t.Fatalf("saw %d requests, want 3", len(keys))
	}
	if keys[0] != "h:1" || keys[1] != "h:1" {
		t.Fatalf("retry changed the key: %q then %q", keys[0], keys[1])
	}
	if keys[2] != "h:2" {
		t.Fatalf("second batch key %q, want h:2", keys[2])
	}
}

// TestToGroups checks the JSON-batch → engine-group conversion used by
// the SKSP sender: first-appearance group order, per-stream update
// order, and the nil-Weight = insert default.
func TestToGroups(t *testing.T) {
	w := int64(-2)
	groups := toGroups([]Update{
		{Stream: "G", Value: 7},
		{Stream: "F", Value: 1},
		{Stream: "G", Value: 9, Weight: &w},
	})
	if len(groups) != 2 || groups[0].Name != "G" || groups[1].Name != "F" {
		t.Fatalf("group order wrong: %+v", groups)
	}
	g := groups[0].Updates
	if len(g) != 2 || g[0].Value != 7 || g[0].Weight != 1 || g[1].Value != 9 || g[1].Weight != -2 {
		t.Fatalf("G updates wrong: %+v", g)
	}
	if len(groups[1].Updates) != 1 || groups[1].Updates[0].Weight != 1 {
		t.Fatalf("F updates wrong: %+v", groups[1].Updates)
	}
	if toGroups(nil) != nil && len(toGroups(nil)) != 0 {
		t.Fatal("empty batch should yield no groups")
	}
}

// TestConfigProtoValidation: skimp demands a stream address, unknown
// protocols are rejected, empty defaults to json.
func TestConfigProtoValidation(t *testing.T) {
	base := Config{BaseURL: "http://x", Streams: []string{"F"}, Duration: time.Second}

	c := base
	if err := c.applyDefaults(); err != nil || c.Proto != ProtoJSON {
		t.Fatalf("default proto = %q, err %v; want json, nil", c.Proto, err)
	}
	c = base
	c.Proto = ProtoSkimp
	if err := c.applyDefaults(); err == nil {
		t.Fatal("skimp without StreamAddr must fail")
	}
	c = base
	c.Proto = ProtoSkimp
	c.StreamAddr = "127.0.0.1:1"
	if err := c.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	c = base
	c.Proto = "grpc"
	if err := c.applyDefaults(); err == nil {
		t.Fatal("unknown proto must fail")
	}
}
