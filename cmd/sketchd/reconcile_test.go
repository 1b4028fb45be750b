package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// jsonUpdate is one element of a POST /update body.
type jsonUpdate struct {
	Stream string `json:"stream"`
	Value  uint64 `json:"value"`
	Weight int64  `json:"weight"`
}

// postTally is what a retrying /update sender observed.
type postTally struct {
	attempts, rejected429 int
	firstReject, done     time.Time
	hint                  time.Duration // the first 429's Retry-After
}

// postRetrying POSTs one /update batch until it is admitted, the way a
// well-behaved client does: a 429 is "nothing applied, resend", its
// Retry-After floors the next backoff delay, and any other non-200 is
// permanent and ends the loop. Safe to call from any goroutine.
func postRetrying(ctx context.Context, b distributed.Backoff, url string, batch []jsonUpdate) (postTally, error) {
	var tally postTally
	body, err := json.Marshal(batch)
	if err != nil {
		return tally, err
	}
	ctx, giveUp := context.WithCancel(ctx)
	defer giveUp()
	err = b.Retry(ctx, func(ctx context.Context) error {
		err := post(ctx, url, body, len(batch), &tally)
		if _, retryable := err.(*distributed.RetryAfterError); err != nil && !retryable {
			giveUp()
		}
		return err
	})
	return tally, err
}

// post makes one /update attempt of a want-update body for postRetrying.
func post(ctx context.Context, url string, body []byte, want int, tally *postTally) error {
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	tally.attempts++
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		tally.done = time.Now()
		var out struct {
			Applied int `json:"applied"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		if out.Applied != want {
			return fmt.Errorf("admitted, but applied %d of %d", out.Applied, want)
		}
		return nil
	case http.StatusTooManyRequests:
		after := distributed.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		if tally.rejected429++; tally.rejected429 == 1 {
			tally.firstReject, tally.hint = time.Now(), after
		}
		return &distributed.RetryAfterError{After: after, Err: errors.New("429")}
	default:
		return fmt.Errorf("status %d", resp.StatusCode)
	}
}

// TestLoadHarnessReconciliation bursts seeded, Zipf-skewed /update
// batches from several writers at a pipelined sketchd while a reader
// polls /answer, then reconciles exactly: every POST is one sample of
// the /update latency histogram, every admitted update is enqueued and
// applied (none unrouted), every 429 the writers saw is a counted
// rejection, and the served estimate equals that of a serial engine fed
// the same updates — sketches are linear, so concurrency may reorder
// updates but never change the synopses.
func TestLoadHarnessReconciliation(t *testing.T) {
	cfg := core.Config{Tables: 3, Buckets: 256, Seed: 11}
	const domain = 1 << 12
	build := func(ic engine.IngestConfig) *engine.Engine {
		eng := newEngine(t, cfg, ic)
		for _, s := range []string{"F", "G"} {
			if err := eng.Tenant(engine.DefaultTenant).DeclareStream(s, domain); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Tenant(engine.DefaultTenant).RegisterQuery(engine.QuerySpec{
			Name: "q", Agg: engine.Count,
			Left:  engine.Side{Stream: "F"},
			Right: engine.Side{Stream: "G"},
		}); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := build(engine.IngestConfig{Workers: 2, BatchSize: 64, QueueDepth: 128})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()

	// Pre-generate every writer's batches so the serial reference sees
	// exactly what the server was sent.
	const (
		writers   = 3
		postsEach = 20
		batchSize = 100
	)
	batches := make([][][]jsonUpdate, writers)
	ref := build(engine.IngestConfig{Workers: 1})
	for w := range batches {
		r := rand.New(rand.NewSource(42 + int64(w)))
		zipf := rand.NewZipf(r, 1.1, 1, domain-1)
		for p := 0; p < postsEach; p++ {
			batch := make([]jsonUpdate, batchSize)
			for i := range batch {
				batch[i] = jsonUpdate{Stream: []string{"F", "G"}[r.Intn(2)], Value: zipf.Uint64(), Weight: 1}
				if err := ref.Tenant(engine.DefaultTenant).IngestBatch(batch[i].Stream, []stream.Update{{Value: batch[i].Value, Weight: batch[i].Weight}}); err != nil {
					t.Fatal(err)
				}
			}
			batches[w] = append(batches[w], batch)
		}
	}

	b := distributed.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Attempts: 50}
	tallies := make([]postTally, writers*postsEach)
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p, batch := range batches[w] {
				tally, err := postRetrying(context.Background(), b, ts.URL+"/update", batch)
				if err != nil {
					t.Errorf("writer %d post %d: %v", w, p, err)
					return
				}
				tallies[w*postsEach+p] = tally
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/answer?query=q")
			if err != nil {
				t.Errorf("answer: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("answer: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if t.Failed() {
		return
	}

	var requests, rejected int
	for _, tl := range tallies {
		requests += tl.attempts
		rejected += tl.rejected429
	}
	const sent = writers * postsEach * batchSize
	if code, body := httpJSON(t, "POST", ts.URL+"/flush", ""); code != 200 {
		t.Fatalf("flush: %d %s", code, body)
	}
	code, st := do(t, "GET", ts.URL+"/stats", nil)
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	ingest := st["ingest"].(map[string]any)
	if got := ingest["updatesEnqueued"].(float64); got != sent {
		t.Fatalf("updatesEnqueued = %v, want %d sent", got, sent)
	}
	if got := ingest["updatesApplied"].(float64); got != sent {
		t.Fatalf("updatesApplied = %v, want %d sent", got, sent)
	}
	if got := ingest["updatesUnrouted"].(float64); got != 0 {
		t.Fatalf("updatesUnrouted = %v, want 0 (every stream has a query)", got)
	}
	if got := ingest["rejected"].(float64); got != float64(rejected) {
		t.Fatalf("server counted %v rejections, writers saw %d 429s", got, rejected)
	}
	if got := st["updateLatency"].(map[string]any)["count"].(float64); got != float64(requests) {
		t.Fatalf("updateLatency.count = %v, writers made %d requests", got, requests)
	}
	// And against the engine directly, not just /stats.
	if got := eng.IngestStats().UpdatesApplied; got != sent {
		t.Fatalf("engine applied %d, want %d", got, sent)
	}

	want, err := ref.Tenant(engine.DefaultTenant).Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	code, ans := do(t, "GET", ts.URL+"/answer?query=q", nil)
	if code != 200 {
		t.Fatalf("answer: %d %v", code, ans)
	}
	if got := ans["estimate"].(float64); got != float64(want.Estimate) {
		t.Fatalf("served estimate %v, serial ingest of the same updates gives %d", got, want.Estimate)
	}
}

// TestLoadgenClientBackoffOn429 is the 429 path end to end with a
// retrying client: a sketchd with a saturated depth-1 ingest queue sheds
// a batch with Retry-After, the client's jittered backoff retries with
// that hint as its floor — not at its own millisecond pace — and once
// the queue drains the batch lands exactly once: no loss, no double
// count.
func TestLoadgenClientBackoffOn429(t *testing.T) {
	eng := newEngine(t, core.Config{Tables: 3, Buckets: 64, Seed: 1}, engine.IngestConfig{Workers: 1, BatchSize: 1, QueueDepth: 1})
	tn := eng.Tenant(engine.DefaultTenant)
	entered := make(chan struct{}, 16)
	gate := make(chan struct{})
	err := tn.RegisterPredicate("gate", func(uint64, int64) bool {
		entered <- struct{}{}
		<-gate
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"F", "G"} {
		if err := tn.DeclareStream(s, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.RegisterQuery(engine.QuerySpec{
		Name: "q", Agg: engine.Count,
		Left:  engine.Side{Stream: "F", Predicate: "gate"},
		Right: engine.Side{Stream: "G"},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()

	b := distributed.Backoff{
		Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Attempts: 20,
		Rand: rand.New(rand.NewSource(3)),
	}
	ctx := context.Background()

	// Park the lone worker inside the gated predicate and fill the
	// depth-1 queue: the pipeline is now saturated.
	if _, err := postRetrying(ctx, b, ts.URL+"/update", []jsonUpdate{{Stream: "F", Value: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := postRetrying(ctx, b, ts.URL+"/update", []jsonUpdate{{Stream: "F", Value: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}

	// The next batch is shed and retried by the client; open the gate
	// once the server has rejected it.
	var tally postTally
	var sendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tally, sendErr = postRetrying(ctx, b, ts.URL+"/update",
			[]jsonUpdate{{Stream: "F", Value: 3, Weight: 1}, {Stream: "G", Value: 3, Weight: 1}})
	}()
	for eng.IngestStats().Rejected == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-done
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if tally.rejected429 < 1 {
		t.Fatalf("expected at least one 429, got %d", tally.rejected429)
	}
	if tally.attempts != tally.rejected429+1 {
		t.Fatalf("attempts %d, rejections %d: retried a non-429 or lost one", tally.attempts, tally.rejected429)
	}
	if tally.hint <= 0 {
		t.Fatal("429 carried no usable Retry-After hint")
	}
	if waited := tally.done.Sub(tally.firstReject); waited < tally.hint {
		t.Fatalf("retry landed %v after the first 429, before its Retry-After of %v", waited, tally.hint)
	}
	eng.Flush()
	// No loss, no double count: 2 parked updates + the 2-update batch.
	if got := eng.IngestStats().UpdatesApplied; got != 4 {
		t.Fatalf("engine applied %d updates, want exactly 4", got)
	}
	if got := eng.IngestStats().Rejected; got != int64(tally.rejected429) {
		t.Fatalf("engine rejected %d, client observed %d", got, tally.rejected429)
	}
}

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
	sksp := srv.Listen(ln)
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
