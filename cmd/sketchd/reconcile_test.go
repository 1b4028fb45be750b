package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// sendResending sends d on s and resends the same frame after each
// REJECT, once its retry-after hint has passed, up to 10 times. It
// returns the last reply and the number of REJECTs resent.
func sendResending(s *wire.Session, d *wire.Data) (wire.Ack, int, error) {
	for resent := 0; ; resent++ {
		ack, err := s.Send(d)
		var rej wire.Reject
		if !errors.As(err, &rej) || resent == 10 {
			return ack, resent, err
		}
		time.Sleep(time.Duration(rej.RetryAfter) * time.Second)
	}
}

// TestLoadHarnessSkimpProto is the SKSP mirror of the HTTP
// reconciliation: a sketchd with both listeners up, several concurrent
// wire sessions (one connection each) spreading seeded batches over two
// tenants, then exact reconciliation — every ACKed update is in the
// right tenant and applied, and the listener's counters, read back
// through the HTTP /stats "stream" section, agree with the clients.
func TestLoadHarnessSkimpProto(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 3, Buckets: 256, Seed: 11}, engine.IngestConfig{Workers: 2, BatchSize: 64, QueueDepth: 64})
	tenants := []string{"t0", "t1"}
	for _, name := range tenants {
		tn := eng.Tenant(name)
		for _, s := range []string{"F", "G"} {
			if err := tn.DeclareStream(s, 1<<12); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.RegisterQuery(engine.QuerySpec{
			Name: "q", Agg: engine.Count,
			Left:  engine.Side{Stream: "F"},
			Right: engine.Side{Stream: "G"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Both front ends share one node backend, hence one /stats.
	srv := newServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sksp := srv.Listen(ln, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	done := make(chan struct{})
	go func() { defer close(done); _ = sksp.Serve() }()
	defer func() { sksp.Shutdown(); <-done }()

	const (
		workers   = 3
		framesPer = 20
		batchSize = 100
	)
	var mu sync.Mutex
	acked := map[string]int64{}
	rejects := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := wire.Dial(ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer s.Close()
			r := rand.New(rand.NewSource(42 + int64(w)))
			zipf := rand.NewZipf(r, 1.1, 1, 1<<12-1)
			for f := 0; f < framesPer; f++ {
				tenant := tenants[(w+f)%len(tenants)]
				groups := []stream.Group{{Name: "F"}, {Name: "G"}}
				for i := 0; i < batchSize; i++ {
					g := &groups[r.Intn(2)]
					g.Updates = append(g.Updates, stream.Update{Value: zipf.Uint64(), Weight: 1})
				}
				d := &wire.Data{ClientID: fmt.Sprintf("writer-%d", w), Seq: uint64(f + 1), Tenant: tenant, Groups: groups}
				ack, resent, err := sendResending(s, d)
				if err != nil {
					t.Errorf("worker %d frame %d: %v", w, f, err)
					return
				}
				if ack.Applied != batchSize || ack.Duplicate {
					t.Errorf("worker %d frame %d: ACKed %d of %d, duplicate %v", w, f, ack.Applied, batchSize, ack.Duplicate)
					return
				}
				mu.Lock()
				acked[tenant] += ack.Applied
				rejects += resent
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	eng.Flush()

	const total = workers * framesPer * batchSize
	var tenantSum int64
	for _, name := range tenants {
		var n int64
		for _, c := range eng.Tenant(name).Stats().UpdateCounts {
			n += c
		}
		if n != acked[name] {
			t.Fatalf("tenant %s holds %d updates, clients were ACKed %d", name, n, acked[name])
		}
		tenantSum += n
	}
	if tenantSum != total {
		t.Fatalf("tenants hold %d updates, clients sent %d", tenantSum, total)
	}
	if ist := eng.IngestStats(); ist.UpdatesEnqueued != total || ist.UpdatesApplied != total || ist.UpdatesUnrouted != 0 {
		t.Fatalf("ingest counters enqueued=%d applied=%d unrouted=%d, want %d ACKed, all applied",
			ist.UpdatesEnqueued, ist.UpdatesApplied, ist.UpdatesUnrouted, total)
	}

	code, st := do(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	sst, ok := st["stream"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing the stream section: %v", st)
	}
	if got := sst["updates"].(float64); got != total {
		t.Fatalf("/stats stream.updates = %v, clients were ACKed %d", got, total)
	}
	if got := sst["connsTotal"].(float64); got != workers {
		t.Fatalf("/stats stream.connsTotal = %v, want %d (one per client)", got, workers)
	}
	if got, want := sst["frames"].(float64), float64(workers*framesPer+rejects); got != want {
		t.Fatalf("/stats stream.frames = %v, want the %d ACKed plus the %d REJECTed", got, workers*framesPer, rejects)
	}
	if got := sst["rejected"].(float64); got != float64(rejects) {
		t.Fatalf("/stats stream.rejected = %v, clients resent %d REJECTed frames", got, rejects)
	}
	if got := sst["errors"].(float64); got != 0 {
		t.Fatalf("/stats stream.errors = %v, want 0", got)
	}
}
