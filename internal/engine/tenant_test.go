package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"skimsketch/internal/monitor"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// setupTenant declares streams F and G and registers query "q" =
// COUNT(F join G) inside one tenant namespace.
func setupTenant(t *testing.T, tn *Tenant) {
	t.Helper()
	for _, s := range []string{"F", "G"} {
		if err := tn.DeclareStream(s, 1024); err != nil {
			t.Fatal(err)
		}
	}
	err := tn.RegisterQuery(QuerySpec{
		Name: "q", Agg: Count,
		Left: Side{Stream: "F"}, Right: Side{Stream: "G"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// feedTenant pushes n zipfian updates per stream into a tenant; the
// seed differentiates tenants' data.
func feedTenant(t *testing.T, tn *Tenant, n int, seed int64) {
	t.Helper()
	zf, _ := workload.NewZipf(1024, 1.2, seed)
	zg, _ := workload.NewZipf(1024, 1.2, seed+1)
	for i := 0; i < n; i++ {
		update(t, tn, "F", zf.Next(), 1)
		update(t, tn, "G", zg.Next(), 1)
	}
}

// evaluateWatches evaluates a tenant's standing watches through
// Tenant.Answer, as the serving layer does.
func evaluateWatches(e *Engine, tenant string) ([]monitor.WatchStatus, error) {
	return e.Watches().Evaluate(tenant, func(tenant, query string) (int64, error) {
		ans, err := e.Tenant(tenant).Answer(query)
		return ans.Estimate, err
	})
}

// TestTenantIsolationSameNames is the cross-tenant answer-cache
// regression test: two tenants with byte-identical stream and query
// names but different data must answer differently, and each tenant's
// answers must be served from its OWN cache entry — a tenant-oblivious
// cache key would hand alice's cached estimate to bob.
func TestTenantIsolationSameNames(t *testing.T) {
	e := mustEngine(t)
	alice, bob := e.Tenant("alice"), e.Tenant("bob")
	setupTenant(t, alice)
	setupTenant(t, bob)
	feedTenant(t, alice, 4000, 1)
	feedTenant(t, bob, 50, 99)

	ansA, err := alice.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	ansB, err := bob.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ansA.Estimate == ansB.Estimate {
		t.Fatalf("tenants with different data answered identically (%d): cache or synopses are shared across tenants", ansA.Estimate)
	}

	// First answers were misses; repeats are hits — counted per tenant.
	if _, err := alice.Answer("q"); err != nil {
		t.Fatal(err)
	}
	stA, stB := alice.Stats(), bob.Stats()
	if stA.AnswerCacheMisses != 1 || stA.AnswerCacheHits != 1 {
		t.Fatalf("alice cache counters: %d misses %d hits, want 1/1", stA.AnswerCacheMisses, stA.AnswerCacheHits)
	}
	if stB.AnswerCacheMisses != 1 || stB.AnswerCacheHits != 0 {
		t.Fatalf("bob cache counters: %d misses %d hits, want 1/0", stB.AnswerCacheMisses, stB.AnswerCacheHits)
	}

	// Updating bob must invalidate bob's cache entry only: alice keeps
	// hitting hers, bob re-estimates.
	update(t, bob, "F", 3, 1)
	if _, err := alice.Answer("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Answer("q"); err != nil {
		t.Fatal(err)
	}
	stA, stB = alice.Stats(), bob.Stats()
	if stA.AnswerCacheHits != 2 {
		t.Fatalf("alice cache hits %d after bob's update, want 2 (her entry must survive)", stA.AnswerCacheHits)
	}
	if stB.AnswerCacheMisses != 2 {
		t.Fatalf("bob cache misses %d after his update, want 2 (his entry must invalidate)", stB.AnswerCacheMisses)
	}
}

// TestTenantUpdateIsolation: one tenant's traffic must never reach
// another tenant's synopses, whatever the stream names.
func TestTenantUpdateIsolation(t *testing.T) {
	e := mustEngine(t)
	alice, bob := e.Tenant("alice"), e.Tenant("bob")
	setupTenant(t, alice)
	setupTenant(t, bob)
	feedTenant(t, alice, 1000, 1)

	ansB, err := bob.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ansB.Estimate != 0 {
		t.Fatalf("bob ingested nothing but estimates %d", ansB.Estimate)
	}
	stB := bob.Stats()
	if stB.UpdateCounts["F"] != 0 || stB.UpdateCounts["G"] != 0 {
		t.Fatalf("bob's update counts polluted by alice's traffic: %+v", stB.UpdateCounts)
	}
}

func TestDefaultTenantBackCompat(t *testing.T) {
	e := mustEngine(t)
	def := e.Tenant(DefaultTenant)
	if err := def.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	update(t, def, "F", 7, 1)
	st := e.Stats()
	if st.UpdateCounts["F"] != 1 {
		t.Fatalf("default tenant update counts keyed %v, want bare \"F\"", st.UpdateCounts)
	}
	got := def.Streams()
	if len(got) != 1 || got[0] != "F" {
		t.Fatalf("default tenant streams = %v", got)
	}

	// "acme/F" is how Stats keys tenant acme's stream F, so no stream may
	// be named that way: neither declared nor restored.
	if err := def.DeclareStream("acme/F", 64); err == nil {
		t.Fatal(`default tenant declared stream "acme/F", which collides with tenant acme's F in Stats.UpdateCounts`)
	}
	r := mustEngine(t)
	snap := `{"version":1,"defaults":{"tables":5,"buckets":256,"seed":7},"streams":{"G":{"domain":64},"acme/F":{"domain":64,"count":3}}}`
	if err := r.Restore(strings.NewReader(snap)); err == nil {
		t.Fatal(`restore accepted stream "acme/F"`)
	}
	if st := r.Stats(); st.Streams != 0 || len(st.UpdateCounts) != 0 {
		t.Fatalf("refused restore changed the engine: %+v", st)
	}
}

func TestTenantNameValidation(t *testing.T) {
	e := mustEngine(t)
	for _, bad := range []string{"", "a/b", "a b", "a\tb", "a\nb"} {
		if err := e.Tenant(bad).DeclareStream("F", 8); err == nil {
			t.Errorf("tenant name %q accepted", bad)
		}
		if err := e.SetQuota(bad, Quota{}); err == nil {
			t.Errorf("SetQuota accepted tenant name %q", bad)
		}
	}
}

func TestTenantMemoryQuota(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("small")
	if err := e.SetQuota("small", Quota{MaxSynopsisWords: 1}); err != nil {
		t.Fatal(err)
	}
	setupStreams := func() {
		for _, s := range []string{"F", "G"} {
			if err := tn.DeclareStream(s, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	setupStreams()
	err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	// A failed registration must not leak charged words or half a query.
	st := tn.Stats()
	if st.Queries != 0 || st.Synopses != 0 || st.TotalWords != 0 {
		t.Fatalf("failed registration leaked state: %+v", st)
	}

	// Raising the quota admits the query; removing it refunds the words
	// so a second registration fits again.
	if err := e.SetQuota("small", Quota{MaxSynopsisWords: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	used := tn.Stats().TotalWords
	if used == 0 {
		t.Fatal("registered query charged zero words")
	}
	if err := e.SetQuota("small", Quota{MaxSynopsisWords: used}); err != nil {
		t.Fatal(err)
	}
	// Sharing: a second query over the same synopses charges nothing.
	if err := tn.RegisterQuery(QuerySpec{Name: "q2", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}); err != nil {
		t.Fatalf("shared-synopsis query rejected under exact quota: %v", err)
	}
	// A query needing fresh synopses does not fit...
	err = tn.RegisterQuery(QuerySpec{Name: "q3", Agg: Count,
		Left: Side{Stream: "F", WindowLen: 100, WindowBuckets: 4}, Right: Side{Stream: "G"}})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded for fresh synopsis, got %v", err)
	}
	// ...until removing the old queries refunds their words.
	if err := tn.RemoveQuery("q"); err != nil {
		t.Fatal(err)
	}
	if err := tn.RemoveQuery("q2"); err != nil {
		t.Fatal(err)
	}
	if got := tn.Stats().TotalWords; got != 0 {
		t.Fatalf("words not refunded after removal: %d", got)
	}
}

func TestTenantQueueShareQuota(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 2, BatchSize: 4, QueueDepth: 4})
	capped, free := e.Tenant("capped"), e.Tenant("free")
	setupTenant(t, capped)
	setupTenant(t, free)
	if err := e.SetQuota("capped", Quota{MaxPendingUpdates: 8}); err != nil {
		t.Fatal(err)
	}

	big := make([]stream.Update, 100)
	for i := range big {
		big[i] = stream.Update{Value: uint64(i % 64), Weight: 1}
	}
	err := capped.IngestBatch("F", big)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("100-update batch against quota 8: want ErrQuotaExceeded, got %v", err)
	}
	// The shared pipeline still serves the uncapped tenant.
	if err := free.IngestBatch("F", big); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	stC, stF := capped.Stats(), free.Stats()
	if stC.Rejected != 100 {
		t.Fatalf("capped tenant rejected counter %d, want 100", stC.Rejected)
	}
	if stC.UpdateCounts["F"] != 0 {
		t.Fatalf("rejected batch leaked into stream counts: %+v", stC.UpdateCounts)
	}
	if stF.UpdateCounts["F"] != 100 || stF.Rejected != 0 {
		t.Fatalf("free tenant: %+v", stF)
	}
	if stC.PendingUpdates != 0 || stF.PendingUpdates != 0 {
		t.Fatalf("pending gauges not settled after flush: capped %d free %d", stC.PendingUpdates, stF.PendingUpdates)
	}

	// Small batches under the cap are admitted and settle the gauge.
	if err := capped.IngestBatch("F", big[:8]); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got := capped.Stats().UpdateCounts["F"]; got != 8 {
		t.Fatalf("admitted batch count %d, want 8", got)
	}
}

// TestSnapshotStaysV1ForSingleTenant guards the compatibility contract:
// an engine that never used tenants, quotas or watches keeps writing
// version-1 (pre-tenant layout) snapshots.
func TestSnapshotStaysV1ForSingleTenant(t *testing.T) {
	e := buildLoadedEngine(t)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Version int             `json:"version"`
		Tenants json.RawMessage `json:"tenants"`
		Streams json.RawMessage `json:"streams"`
	}
	if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Version != 1 {
		t.Fatalf("single-tenant snapshot version %d, want 1", probe.Version)
	}
	if len(probe.Tenants) != 0 {
		t.Fatalf("single-tenant snapshot carries a tenants block: %s", probe.Tenants)
	}
	if len(probe.Streams) == 0 {
		t.Fatal("v1 snapshot missing top-level streams")
	}
}

func TestMultiTenantSnapshotRoundTrip(t *testing.T) {
	e := mustEngine(t)
	alice, bob := e.Tenant("alice"), e.Tenant("bob")
	setupTenant(t, alice)
	setupTenant(t, bob)
	if err := alice.RegisterPredicate("low", Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	if err := alice.RegisterQuery(QuerySpec{Name: "pred", Agg: Count,
		Left: Side{Stream: "F", Predicate: "low"}, Right: Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetQuota("bob", Quota{MaxSynopsisWords: 1 << 20, MaxPendingUpdates: 777}); err != nil {
		t.Fatal(err)
	}
	if err := alice.RegisterWatch("q", monitor.WatchConfig{High: 10, Low: 5}); err != nil {
		t.Fatal(err)
	}
	feedTenant(t, alice, 2000, 1)
	feedTenant(t, bob, 300, 9)
	// Drive the watch into alert so the restored state machine has
	// something to preserve.
	if _, err := evaluateWatches(e, "alice"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Version != 2 {
		t.Fatalf("multi-tenant snapshot version %d, want 2", probe.Version)
	}

	r := mustEngine(t) // "low" travels in the snapshot
	if err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alice", "bob"} {
		for _, q := range e.Tenant(tenant).Queries() {
			a, err := e.Tenant(tenant).Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Tenant(tenant).Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if a.Estimate != b.Estimate {
				t.Fatalf("tenant %s query %s: %d vs %d", tenant, q, a.Estimate, b.Estimate)
			}
		}
	}
	if got := r.Tenant("bob").Stats().Quota; got != (Quota{MaxSynopsisWords: 1 << 20, MaxPendingUpdates: 777}) {
		t.Fatalf("bob's quota did not survive: %+v", got)
	}
	watches := r.Watches().List("alice")
	if len(watches) != 1 || watches[0].Query != "q" {
		t.Fatalf("alice's watches did not survive: %+v", watches)
	}
	origWatch := e.Watches().List("alice")[0]
	if watches[0].State != origWatch.State {
		t.Fatalf("watch state %v did not survive restore (orig %v)", watches[0].State, origWatch.State)
	}
}

// TestTenantSliceSnapshotRestore moves one tenant between engines (and
// names) via the single-tenant snapshot layout, its predicate included.
func TestTenantSliceSnapshotRestore(t *testing.T) {
	e := mustEngine(t)
	alice := e.Tenant("alice")
	setupTenant(t, alice)
	if err := alice.RegisterPredicate("low", Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	if err := alice.RegisterQuery(QuerySpec{Name: "pred", Agg: Count,
		Left: Side{Stream: "F", Predicate: "low"}, Right: Side{Stream: "G"}}); err != nil {
		t.Fatal(err)
	}
	setupTenant(t, e.Tenant("bob"))
	feedTenant(t, alice, 1500, 4)
	feedTenant(t, e.Tenant("bob"), 100, 8)

	var buf bytes.Buffer
	if err := alice.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	r := mustEngine(t)
	if err := r.Tenant("carol").Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, q := range alice.Queries() {
		a, err := alice.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Tenant("carol").Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %s: tenant slice moved wrong: %+v vs %+v", q, b, a)
		}
	}
	// Bob must not have traveled along.
	if streams := r.Tenant("bob").Streams(); len(streams) != 0 {
		t.Fatalf("tenant slice snapshot leaked bob's streams: %v", streams)
	}
	// A second restore into the same (now non-empty) tenant must refuse.
	if err := r.Tenant("carol").Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into a non-empty tenant succeeded")
	}
}

// TestV1RestoreReplayTailBitIdentical is the pre-tenant compatibility
// contract end to end at the engine layer: a version-1 snapshot
// restores into the default tenant, and replaying a tail of updates
// through the concurrent pipeline yields bit-identical answers to an
// engine that never restarted.
func TestV1RestoreReplayTailBitIdentical(t *testing.T) {
	solid := buildLoadedEngine(t) // never snapshotted
	forked := buildLoadedEngine(t)
	var buf bytes.Buffer
	if err := forked.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"version":1`)) {
		t.Fatalf("expected a version-1 snapshot, got: %.80s", buf.Bytes())
	}

	restored := mustEngine(t)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Replay the same tail through BOTH engines' concurrent pipelines.
	zf, _ := workload.NewZipf(1024, 1.1, 77)
	zg, _ := workload.NewZipf(1024, 1.1, 78)
	for i := 0; i < 40; i++ {
		bf := make([]stream.Update, 50)
		bg := make([]stream.Update, 50)
		for j := range bf {
			bf[j] = stream.Update{Value: zf.Next(), Weight: 1}
			bg[j] = stream.Update{Value: zg.Next(), Weight: 1}
		}
		for _, e := range []*Engine{solid, restored} {
			if err := e.Tenant(DefaultTenant).IngestBatch("F", bf); err != nil {
				t.Fatal(err)
			}
			if err := e.Tenant(DefaultTenant).IngestBatch("G", bg); err != nil {
				t.Fatal(err)
			}
		}
	}
	from, to := solid.Tenant(DefaultTenant), restored.Tenant(DefaultTenant)
	for _, q := range from.Queries() {
		a, err := from.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := to.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Estimate != b.Estimate {
			t.Fatalf("query %s: restored+replayed %d != uninterrupted %d", q, b.Estimate, a.Estimate)
		}
	}
	// The restored state must live in the DEFAULT tenant, not some
	// namespace invented during restore.
	if streams := to.Streams(); len(streams) != 2 {
		t.Fatalf("v1 restore landed outside the default tenant: %v", streams)
	}
}

func TestWatchHysteresisThroughEngine(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("ops")
	setupTenant(t, tn)
	if err := tn.RegisterWatch("q", monitor.WatchConfig{High: 50, Low: 10}); err != nil {
		t.Fatal(err)
	}
	// Watch on an unknown query is refused.
	if err := tn.RegisterWatch("nope", monitor.WatchConfig{High: 1, Low: 0}); err == nil {
		t.Fatal("watch on unknown query accepted")
	}
	if st := e.Stats(); st.Watches != 1 || st.Tenants["ops"].Watches != 1 {
		t.Fatalf("stats count %d watches (ops %d), want 1", st.Watches, st.Tenants["ops"].Watches)
	}

	eval := func() bool {
		t.Helper()
		sts, err := evaluateWatches(e, "ops")
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) != 1 {
			t.Fatalf("want 1 watch status, got %d", len(sts))
		}
		return sts[0].State == 1 // monitor.Alert
	}
	if eval() {
		t.Fatal("empty engine already in alert")
	}
	// Drive the self-join mass over High.
	for i := 0; i < 20; i++ {
		update(t, tn, "F", 1, 1)
		update(t, tn, "G", 1, 1)
	}
	if !eval() {
		t.Fatal("estimate over High did not raise the alert")
	}
	// Hysteresis: staying between Low and High holds the alert.
	if !eval() {
		t.Fatal("alert dropped without falling to Low")
	}
	// RemoveQuery drops the watch with the query.
	if err := tn.RemoveQuery("q"); err != nil {
		t.Fatal(err)
	}
	if got := e.Watches().List("ops"); len(got) != 0 {
		t.Fatalf("watch survived its query: %+v", got)
	}
}

func TestEngineStatsAggregatesTenants(t *testing.T) {
	e := mustEngine(t)
	setupTenant(t, e.Tenant(DefaultTenant))
	setupTenant(t, e.Tenant("acme"))
	feedTenant(t, e.Tenant("acme"), 10, 3)
	st := e.Stats()
	if st.Streams != 4 || st.Queries != 2 {
		t.Fatalf("global stats did not aggregate tenants: %+v", st)
	}
	if st.UpdateCounts["acme/F"] != 10 {
		t.Fatalf("non-default tenant stream not keyed tenant/stream: %v", st.UpdateCounts)
	}
	if _, ok := st.Tenants["acme"]; !ok {
		t.Fatalf("per-tenant breakdown missing acme: %v", st.Tenants)
	}
	if got := st.Tenants["acme"].UpdateCounts["F"]; got != 10 {
		t.Fatalf("acme slice update counts: %v", st.Tenants["acme"].UpdateCounts)
	}
}
