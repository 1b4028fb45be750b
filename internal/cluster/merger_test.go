package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

func testCfg() core.Config { return core.Config{Tables: 5, Buckets: 128, Seed: 11} }

// newTestEngine returns an engine whose ingest pipeline runs until the
// test ends.
func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: testCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.StopIngest)
	return eng
}

// testShard is one real node of a test cluster and the faults injected
// in front of it: the next saturate429 /update calls and the next
// sketch429 /sketch calls answer 429 with Retry-After satHint seconds,
// and down drops every connection, as a killed process would.
type testShard struct {
	eng *engine.Engine

	saturate429, sketch429 atomic.Int64
	satHint                atomic.Int64
	sketchCalls            atomic.Int64
	down                   atomic.Bool
}

func (sh *testShard) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sh.down.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		var busy *atomic.Int64
		switch r.URL.Path {
		case "/update":
			busy = &sh.saturate429
		case "/sketch":
			sh.sketchCalls.Add(1)
			busy = &sh.sketch429
		}
		if busy != nil {
			if n := busy.Load(); n > 0 && busy.CompareAndSwap(n, n-1) {
				w.Header().Set("Retry-After", strconv.FormatInt(sh.satHint.Load(), 10))
				http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// updates is the number of updates the shard has admitted.
func (sh *testShard) updates() int64 {
	var n int64
	for _, c := range sh.eng.Stats().UpdateCounts {
		n += c
	}
	return n
}

// testUpdate is one element of a JSON /update batch.
type testUpdate struct {
	Stream string `json:"stream"`
	Value  uint64 `json:"value"`
	Weight *int64 `json:"weight,omitempty"`
}

// testCluster is a merger over n real nodes (newRealRing), served by
// the same surface as a node.
type testCluster struct {
	shards []*testShard
	cfg    Config
	srv    *httptest.Server
}

func newTestCluster(t *testing.T, n int, opts MergerOptions) *testCluster {
	t.Helper()
	tc := &testCluster{}
	engines, cfg := newRealRing(t, n, testCfg(), func(_ int, h http.Handler) http.Handler {
		sh := &testShard{}
		sh.satHint.Store(2)
		tc.shards = append(tc.shards, sh)
		return sh.wrap(h)
	})
	for i, eng := range engines {
		tc.shards[i].eng = eng
	}
	if opts.Retry == (distributed.Backoff{}) {
		opts.Retry = distributed.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Attempts: 2, Jitter: 0}
	}
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	m, err := NewMerger(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.cfg = cfg
	tc.srv = httptest.NewServer(serve.New(m))
	t.Cleanup(tc.srv.Close)
	return tc
}

func (tc *testCluster) post(t *testing.T, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(tc.srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func (tc *testCluster) mustPost(t *testing.T, path, body string) {
	t.Helper()
	resp := tc.post(t, path, body)
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

// registerSchema declares streams F, G and the COUNT query q through
// the merger broadcast path, so every shard ends up schema-identical.
func (tc *testCluster) registerSchema(t *testing.T) {
	t.Helper()
	tc.mustPost(t, "/streams", `{"name":"F","domain":1024}`)
	tc.mustPost(t, "/streams", `{"name":"G","domain":1024}`)
	tc.mustPost(t, "/queries", `{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}`)
}

// seededBatch is the deterministic workload the bit-identity tests
// ingest: skewed on F, mildly weighted on G.
func seededBatch(n int) []testUpdate {
	w2 := int64(2)
	batch := make([]testUpdate, 0, 2*n)
	for i := 0; i < n; i++ {
		v := uint64(i*i%512 + i%7)
		batch = append(batch, testUpdate{Stream: "F", Value: v})
		batch = append(batch, testUpdate{Stream: "G", Value: uint64((i*13 + 5) % 512), Weight: &w2})
	}
	return batch
}

func marshalBatch(t *testing.T, batch []testUpdate) string {
	t.Helper()
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

type answerResp struct {
	Query    string `json:"query"`
	Agg      string `json:"agg"`
	Estimate int64  `json:"estimate"`
	Shards   struct {
		Answered int      `json:"answered"`
		Of       int      `json:"of"`
		Missing  []string `json:"missing"`
	} `json:"shards"`
	Confidence struct {
		Coverage      float64 `json:"coverage"`
		ErrorWidening float64 `json:"errorWidening"`
		Degraded      bool    `json:"degraded"`
	} `json:"confidence"`
	Error string `json:"error"`
}

func (tc *testCluster) answer(t *testing.T, wantStatus int) answerResp {
	t.Helper()
	resp, err := http.Get(tc.srv.URL + "/answer?query=q")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("/answer status %d, want %d", resp.StatusCode, wantStatus)
	}
	var ar answerResp
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// degradedAnswers reads the merger's /stats answers.degraded.
func (tc *testCluster) degradedAnswers(t *testing.T) int64 {
	t.Helper()
	resp, err := http.Get(tc.srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Answers struct{ Degraded int64 } `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Answers.Degraded
}

// referenceEngine ingests the same batch into one engine's default
// tenant — the single-node ground truth the cluster answer must match
// bit-for-bit. Beside q it holds s, SUM over the same sides.
func referenceEngine(t *testing.T, batch []testUpdate) *engine.Tenant {
	t.Helper()
	tn := newTestEngine(t).Tenant(engine.DefaultTenant)
	if err := tn.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 1024); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []engine.QuerySpec{
		{Name: "q", Agg: engine.Count, Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}},
		{Name: "s", Agg: engine.Sum, Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}},
	} {
		if err := tn.RegisterQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range batch {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		if err := tn.IngestBatch(u.Stream, []stream.Update{{Value: u.Value, Weight: weight}}); err != nil {
			t.Fatal(err)
		}
	}
	return tn
}

// TestMergerHealthyBitIdentical is the linearity property as a
// multi-process system: a 3-shard cluster answer over hash-routed
// ingest equals a single node over the same stream exactly.
func TestMergerHealthyBitIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, MergerOptions{})
	tc.registerSchema(t)
	batch := seededBatch(400)
	tc.mustPost(t, "/update", marshalBatch(t, batch))

	// Every shard must have received a share (the routing test proper is
	// elsewhere; this guards against the merger collapsing to one shard).
	for i, sh := range tc.shards {
		if sh.updates() == 0 {
			t.Fatalf("shard %d received no updates", i)
		}
	}

	ref := referenceEngine(t, batch)
	want, err := ref.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	ar := tc.answer(t, http.StatusOK)
	if ar.Estimate != want.Estimate {
		t.Fatalf("cluster estimate %d != single-node estimate %d", ar.Estimate, want.Estimate)
	}
	if ar.Shards.Answered != 3 || ar.Shards.Of != 3 || len(ar.Shards.Missing) != 0 {
		t.Fatalf("healthy answer reports %+v", ar.Shards)
	}
	if ar.Confidence.Degraded || ar.Confidence.Coverage != 1 || ar.Confidence.ErrorWidening != 1 {
		t.Fatalf("healthy answer reports degraded confidence %+v", ar.Confidence)
	}
	if n := tc.degradedAnswers(t); n != 0 {
		t.Fatalf("/stats counts %d degraded answers after a healthy one", n)
	}

	// The merger caches nothing: every answer pulls every shard again.
	pulls := tc.shards[0].sketchCalls.Load()
	tc.answer(t, http.StatusOK)
	if tc.shards[0].sketchCalls.Load() == pulls {
		t.Fatal("a repeated answer was served without pulling the shards")
	}
}

// TestMergerDegradedKilledShard kills one shard mid-run and asserts the
// degraded contract: /answer still succeeds, reports the shard
// coverage, and its estimate equals merging the SURVIVING shards'
// sketches exactly — no more, no less.
func TestMergerDegradedKilledShard(t *testing.T) {
	tc := newTestCluster(t, 3, MergerOptions{})
	tc.registerSchema(t)
	batch := seededBatch(400)
	tc.mustPost(t, "/update", marshalBatch(t, batch))

	const killed = 1
	tc.shards[killed].down.Store(true)

	ar := tc.answer(t, http.StatusOK)
	if ar.Shards.Answered != 2 || ar.Shards.Of != 3 {
		t.Fatalf("degraded answer reports %d/%d shards, want 2/3", ar.Shards.Answered, ar.Shards.Of)
	}
	if len(ar.Shards.Missing) != 1 || ar.Shards.Missing[0] != "s1" {
		t.Fatalf("missing shards = %v, want [s1]", ar.Shards.Missing)
	}
	if !ar.Confidence.Degraded {
		t.Fatal("degraded answer not flagged degraded")
	}
	if ar.Confidence.Coverage <= 0.6 || ar.Confidence.Coverage >= 0.7 {
		t.Fatalf("coverage = %v, want 2/3", ar.Confidence.Coverage)
	}
	if ar.Confidence.ErrorWidening != 1.5 {
		t.Fatalf("errorWidening = %v, want 1.5", ar.Confidence.ErrorWidening)
	}
	if n := tc.degradedAnswers(t); n != 1 {
		t.Fatalf("/stats counts %d degraded answers, want 1", n)
	}

	// Exactness: merge the two surviving shard engines' sketches by hand
	// and estimate — the cluster's degraded number must match it.
	var lefts, rights []*core.HashSketch
	for i, sh := range tc.shards {
		if i == killed {
			continue
		}
		qs, err := sh.eng.Tenant(engine.DefaultTenant).QuerySketches("q")
		if err != nil {
			t.Fatal(err)
		}
		lefts = append(lefts, qs.Left)
		rights = append(rights, qs.Right)
	}
	mergedL, err := distributed.Merge(lefts...)
	if err != nil {
		t.Fatal(err)
	}
	mergedR, err := distributed.Merge(rights...)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateJoin(mergedL, mergedR, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Estimate != est.Total {
		t.Fatalf("degraded estimate %d != survivors' merged estimate %d", ar.Estimate, est.Total)
	}
}

// TestMergerAllShardsDown: zero answering shards is the one case that
// IS an error — 503 with a Retry-After hint, not a fabricated zero. With
// no shard reachable, no shard can say a name is unknown either, so an
// unknown name is a 503 too. A schema read, which asks shard 0 alone,
// is a 503 as well.
func TestMergerAllShardsDown(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	for _, sh := range tc.shards {
		sh.down.Store(true)
	}
	for _, path := range []string{"/answer?query=q", "/answer?query=nope", "/queries"} {
		resp, err := http.Get(tc.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without a Retry-After hint", path)
		}
	}
}

// TestMergerPullRetriesBusyShard: a shard answering 429 to the first
// pull is retried (with its Retry-After hint flooring the delay) and
// the answer comes back healthy, not degraded.
func TestMergerPullRetriesBusyShard(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{
		Retry: distributed.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 3, Jitter: 0},
	})
	tc.registerSchema(t)
	tc.mustPost(t, "/update", marshalBatch(t, seededBatch(50)))
	tc.shards[0].satHint.Store(0) // keep the hint tiny so the test stays fast
	tc.shards[0].sketch429.Store(1)
	ar := tc.answer(t, http.StatusOK)
	if ar.Shards.Answered != 2 || ar.Confidence.Degraded {
		t.Fatalf("busy shard was not retried: %+v", ar.Shards)
	}
	if calls := tc.shards[0].sketchCalls.Load(); calls < 2 {
		t.Fatalf("shard 0 saw %d pull attempts, want >= 2", calls)
	}
}

// TestMergerPullBoundsDeclaredLength: a shard whose /sketch declares a
// Content-Length just under maxPayloadBytes, sends a few bytes and
// hangs up, fails its pull and is reported missing, and the merger
// allocates nothing near the declared size: a hostile header cannot
// demand memory the peer never sends.
func TestMergerPullBoundsDeclaredLength(t *testing.T) {
	_, ring := newRealRing(t, 1, testCfg(), nil)
	declareFG(t, newRealMerger(t, ring), 1024)
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxPayloadBytes-1))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("SKSL\x01\x00\x00\x00"))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer liar.Close()
	ring.Shards = append(ring.Shards, Shard{Name: "liar", Addr: liar.URL})
	m := newRealMerger(t, ring)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ans, err := m.Answer(context.Background(), engine.DefaultTenant, "q")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Shards.Answered != 1 || !slices.Equal(ans.Shards.Missing, []string{"liar"}) {
		t.Fatalf("coverage %+v, want the liar missing", ans.Shards)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("the answer allocated %d bytes; a declared length must not size a buffer past maxPresizeBytes", grew)
	}
}

// TestMergerAnswerAllocBudget pins what one global answer allocates
// over 3 idle nodes at the cluster3 shape, the nodes' side included, in
// units of one SKHS blob (114,728 bytes). Each node clones and encodes
// its pair; the merger reads each body into one exactly sized buffer,
// decodes it, adds the pairs in place and clones the sum to skim:
// about 27 blobs. A body read that regrows its buffer, or a shard
// encoding through intermediate blobs, breaks the budget of 32.
func TestMergerAnswerAllocBudget(t *testing.T) {
	m := newAnswerRing(t)
	answer := func() {
		if _, err := m.Answer(context.Background(), engine.DefaultTenant, "q"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		answer()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		answer()
	}
	runtime.ReadMemStats(&after)
	blob := float64(core.MustNewHashSketch(cluster3Sketch).BinarySize())
	perAnswer := float64(after.TotalAlloc-before.TotalAlloc) / n / blob
	t.Logf("%.1f SKHS blobs allocated per answer", perAnswer)
	if perAnswer > 32 {
		t.Fatalf("one answer allocates %.1f SKHS blobs, budget 32", perAnswer)
	}
}

// TestMergerUpdateRejectPropagates: a saturated shard turns the whole
// batch into a 429 with the shard's Retry-After hint (nothing may be
// assumed applied; the client retries the batch under the same key).
func TestMergerUpdateRejectPropagates(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	tc.shards[0].satHint.Store(7)
	tc.shards[0].saturate429.Store(1)
	tc.shards[1].satHint.Store(7)
	tc.shards[1].saturate429.Store(1)
	req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/update", bytes.NewReader([]byte(marshalBatch(t, seededBatch(20)))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "harness:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 7 {
		t.Fatalf("Retry-After = %q, want >= 7 (the shard hint)", resp.Header.Get("Retry-After"))
	}

	// Retrying the same batch under the same key converges to
	// exactly-once: the shard that already applied dedupes, the
	// saturated one applies.
	req2, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/update", bytes.NewReader([]byte(marshalBatch(t, seededBatch(20)))))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Idempotency-Key", "harness:1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200", resp2.StatusCode)
	}
	ref := referenceEngine(t, seededBatch(20))
	want, err := ref.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	ar := tc.answer(t, http.StatusOK)
	if ar.Estimate != want.Estimate {
		t.Fatalf("estimate after retry %d != exactly-once reference %d (double apply?)", ar.Estimate, want.Estimate)
	}
}

// TestMergerUpdateRejectTakesLargestHint: when every shard sheds its
// slice, the merger's 429 carries the largest of their Retry-After
// hints, so a client that honors it does not come back too early.
func TestMergerUpdateRejectTakesLargestHint(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	for i, hint := range []int64{1, 3} {
		tc.shards[i].satHint.Store(hint)
		tc.shards[i].saturate429.Store(1)
	}
	resp := tc.post(t, "/update", marshalBatch(t, seededBatch(20)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("status %d, Retry-After %q; want 429 with the largest shard hint, 3", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	for i, sh := range tc.shards {
		if n := sh.saturate429.Load(); n != 0 {
			t.Fatalf("shard %d was sent no slice (%d 429s left unspent)", i, n)
		}
	}
}

// TestMergerRefusesWindowedQuery: each shard's window would cover only
// the updates routed to it, so a merger refuses a windowed side with a
// 400 and registers the query on no shard, while a node accepts it. An
// unknown aggregate is a 400 at the merger's decode as at a node's.
func TestMergerRefusesWindowedQuery(t *testing.T) {
	engines, cfg := newRealRing(t, 3, testCfg(), nil)
	m := newRealMerger(t, cfg)
	declareFG(t, m, 1024)
	srv := httptest.NewServer(serve.New(m))
	defer srv.Close()
	const windowedLeft = `{"name":"w","left":{"stream":"F","windowLen":100,"windowBuckets":4},"right":{"stream":"G"}}`
	for body, why := range map[string]string{
		windowedLeft: "windowed",
		`{"name":"w","left":{"stream":"F"},"right":{"stream":"G","windowLen":100,"windowBuckets":4}}`: "windowed",
		`{"name":"w","agg":"MAX","left":{"stream":"F"},"right":{"stream":"G"}}`:                       `unknown aggregate "MAX"`,
	} {
		resp, err := http.Post(srv.URL+"/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, why) {
			t.Fatalf("%s: status %d, error %q (%v); want a 400 saying %s", body, resp.StatusCode, out.Error, err, why)
		}
	}
	for i, eng := range engines {
		if qs := eng.Tenant(engine.DefaultTenant).Queries(); slices.Contains(qs, "w") {
			t.Fatalf("shard %d registered a refused query: %v", i, qs)
		}
	}
	resp, err := http.Post(cfg.Shards[0].Addr+"/queries", "application/json", strings.NewReader(windowedLeft))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("a node answered %d to the windowed query, want 201", resp.StatusCode)
	}
}

func TestDeriveKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"client:42", "client.s3:42"},
		{"a.b:c:9", "a.b:c.s3:9"}, // split on the LAST colon, like the shards do
		{"", ""},
		{"nocolon", ""},
		{":5", ""},
	}
	for _, tc := range cases {
		if got := deriveKey(tc.in, 3); got != tc.want {
			t.Errorf("deriveKey(%q, 3) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestStreamForwarderEndToEnd drives the merger's SKSP ingress over
// three real nodes with a wire session: frames are hash-routed to the
// shards over HTTP, a REJECTed frame is resent as is and converges to
// exactly-once through the nodes' dedupe of the derived per-shard keys,
// and the final cluster answers match the single-node reference
// bit-for-bit, naming the same aggregate.
func TestStreamForwarderEndToEnd(t *testing.T) {
	// One shard refuses its first /update: the session must see a
	// REJECT for the whole frame, after the other shards applied their
	// slices, and resend it.
	var saturate atomic.Bool
	saturate.Store(true)
	_, cfg := newRealRing(t, 3, testCfg(), func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/update" && saturate.CompareAndSwap(true, false) {
				http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	m := newRealMerger(t, cfg)
	declareFG(t, m, 1024)
	sum := serve.QueryReq{Name: "s", Agg: engine.Sum, Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}
	if err := m.RegisterQuery(context.Background(), engine.DefaultTenant, sum); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fwd := serve.New(m).Listen(ln, 8)
	serveErr := make(chan error, 1)
	go func() { serveErr <- fwd.Serve() }()
	defer func() {
		fwd.Shutdown()
		if err := <-serveErr; err != nil {
			t.Errorf("forwarder serve: %v", err)
		}
	}()

	batch := seededBatch(200)
	s, err := wire.Dial(ln.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	frame := &wire.Data{ClientID: "sksp-test", Seq: 1, Groups: batchGroups(200)}
	var ack wire.Ack
	rejects := 0
	for {
		ack, err = s.Send(frame)
		if !errors.As(err, new(wire.Reject)) || rejects == 10 {
			break
		}
		rejects++ // nothing was applied: resend the same seq
	}
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied != int64(len(batch)) || ack.Duplicate {
		t.Fatalf("ACK applied %d, duplicate %v; want %d, false", ack.Applied, ack.Duplicate, len(batch))
	}
	if rejects == 0 {
		t.Fatal("saturated shard produced no REJECT; fault injection broke")
	}

	ref := referenceEngine(t, batch)
	for _, q := range []string{"q", "s"} {
		want, err := ref.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Answer(context.Background(), engine.DefaultTenant, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimate != want.Estimate {
			t.Fatalf("%s: SKSP-ingested cluster estimate %d != reference %d (replay double-applied?)", q, got.Estimate, want.Estimate)
		}
		if got.Agg != want.Agg {
			t.Fatalf("%s: cluster answers aggregate %s, a node %s", q, got.Agg, want.Agg)
		}
	}
}

// TestMergerRejectsMalformedIdempotencyKey: the merger parses
// Idempotency-Key exactly like a node, so a key it cannot derive
// per-shard keys from is a 400 that applies nothing — not a batch
// silently forwarded without exactly-once protection.
func TestMergerRejectsMalformedIdempotencyKey(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	for _, bad := range []string{"nocolon", ":7", "c:", "c:notanumber"} {
		req, err := http.NewRequest(http.MethodPost, tc.srv.URL+"/update", bytes.NewReader([]byte(marshalBatch(t, seededBatch(5)))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("Idempotency-Key %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for i, sh := range tc.shards {
		if n := sh.updates(); n != 0 {
			t.Fatalf("shard %d applied %d updates from rejected batches", i, n)
		}
	}
}

// TestMergerSketchRefusesDivergedSchema: /sketch shares /answer's
// pull-and-merge, so shards that disagree on a query's domain are an
// error on both, never a merged payload.
func TestMergerSketchRefusesDivergedSchema(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	for i, domain := range []uint64{1024, 2048} {
		tn := tc.shards[i].eng.Tenant(engine.DefaultTenant)
		for _, s := range []string{"F", "G"} {
			if err := tn.DeclareStream(s, domain); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.RegisterQuery(engine.QuerySpec{Name: "q", Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/answer?query=q", "/sketch?query=q"} {
		resp, err := http.Get(tc.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("GET %s over diverged shards: status %d, want 500", path, resp.StatusCode)
		}
	}
}
