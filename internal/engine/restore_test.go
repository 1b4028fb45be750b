package engine

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/monitor"
	"skimsketch/internal/stream"
)

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestQuotaRefusesBeforeAllocating: a windowed side over a tenant's word
// quota (2,000 buckets of 7 × 2048 counters against 1,000 words) is
// refused before its buckets are built, and so is a synopsis whose word
// count overflows int.
func TestQuotaRefusesBeforeAllocating(t *testing.T) {
	e := startEngine(t, Options{SketchConfig: core.Config{Tables: 7, Buckets: 2048, Seed: 1}}, IngestConfig{Workers: 2})
	if err := e.SetQuota("capped", Quota{MaxSynopsisWords: 1000}); err != nil {
		t.Fatal(err)
	}
	tn := e.Tenant("capped")
	if err := tn.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	side := Side{Stream: "F", WindowLen: 2000, WindowBuckets: 2000}
	var err error
	n := allocatedBy(func() {
		err = tn.RegisterQuery(QuerySpec{Name: "w", Left: side, Right: side})
	})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	if n >= 1<<20 {
		t.Fatalf("refused registration allocated %d bytes, want < 1 MiB", n)
	}
	huge := idleEngine(t, Options{SketchConfig: core.Config{Tables: 1 << 32, Buckets: 1 << 32, Seed: 1}}).Tenant(DefaultTenant)
	if err := huge.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := huge.RegisterQuery(QuerySpec{Name: "huge", Left: Side{Stream: "F"}, Right: Side{Stream: "F"}}); err == nil {
		t.Fatal("registered a synopsis whose word count overflows int")
	}
}

// TestRestoreRefusals: each edit of a good snapshot that the live API
// would refuse, or that leaves a query without its carried synopsis, is
// an error that installs nothing, not even a carried predicate; the good
// snapshot restores after it into the engine, which has the snapshot's
// predicate "low" registered already.
func TestRestoreRefusals(t *testing.T) {
	var good bytes.Buffer
	if err := buildLoadedEngine(t).Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	window := func(s *snapshot) *synSnap {
		for i := range s.Synopses {
			if s.Synopses[i].WindowLen > 0 {
				return &s.Synopses[i]
			}
		}
		t.Fatal("no windowed synopsis")
		return nil
	}
	// v2 moves the version-1 body into tenant's slice of a version-2 one.
	v2 := func(s *snapshot, tenant string, edit func(*tenantSnap)) {
		slice := s.v1Slice()
		edit(&slice)
		*s = snapshot{Version: snapshotVersionV2, Defaults: s.Defaults, Tenants: map[string]tenantSnap{tenant: slice}}
	}
	for name, edit := range map[string]func(*snapshot){
		"defaults":        func(s *snapshot) { s.Defaults.Tables = 0 },
		"domain 0":        func(s *snapshot) { s.Streams["F"] = streamSnap{Domain: 0, Count: 1} },
		"negative count":  func(s *snapshot) { s.Streams["F"] = streamSnap{Domain: 1024, Count: -1} },
		"stream name":     func(s *snapshot) { s.Streams["a/b"] = streamSnap{Domain: 8} },
		"uncarried":       func(s *snapshot) { s.Synopses = s.Synopses[1:] },
		"synopsis config": func(s *snapshot) { s.Synopses[0].Config.Seed++ },
		"blob config": func(s *snapshot) {
			s.Defaults.Seed++
			for i := range s.Synopses {
				s.Synopses[i].Config = s.Defaults
			}
		},
		"window shape": func(s *snapshot) { window(s).WindowBuckets *= 2 },
		"unused synopsis": func(s *snapshot) {
			s.Synopses = append(s.Synopses, synSnap{Side: Side{Stream: "G", Predicate: "low"}, Config: s.Defaults, Blob: s.Synopses[0].Blob})
		},
		"predicate range": func(s *snapshot) { s.Predicates["mid"] = Predicate{Min: 9, Max: 1} },
		"predicate name":  func(s *snapshot) { s.Predicates[""] = Predicate{} },
		"conflicting predicate": func(s *snapshot) {
			s.Predicates = map[string]Predicate{"low": {Max: 7}, "mid": {Min: 8, Max: 9}}
		},
		"version":         func(s *snapshot) { s.Version = 99 },
		"duplicate query": func(s *snapshot) { s.Queries = append(s.Queries, s.Queries[0]) },
		"default quota": func(s *snapshot) {
			v2(s, DefaultTenant, func(*tenantSnap) {})
			s.DefaultQuota = &Quota{MaxSynopsisWords: -1}
		},
		"watch": func(s *snapshot) {
			v2(s, DefaultTenant, func(ts *tenantSnap) { ts.Watches = []watchSnap{{Query: "nope"}} })
		},
		"tenant name": func(s *snapshot) { v2(s, "a b", func(*tenantSnap) {}) },
		"quota":       func(s *snapshot) { v2(s, DefaultTenant, func(ts *tenantSnap) { ts.Quota.MaxPendingUpdates = -1 }) },
	} {
		var snap snapshot
		if err := json.Unmarshal(good.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		edit(&snap)
		bad, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		e := mustEngine(t)
		if err := e.Tenant(DefaultTenant).RegisterPredicate("low", Predicate{Max: 511}); err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
			continue
		}
		if st := e.Stats(); st.Streams != 0 || st.Queries != 0 {
			t.Errorf("%s: refused restore left %d streams, %d queries", name, st.Streams, st.Queries)
		}
		e.mu.Lock()
		preds := len(e.predicates)
		e.mu.Unlock()
		if preds != 1 {
			t.Errorf("%s: refused restore left %d predicates, want the 1 registered", name, preds)
		}
		if err := e.Restore(bytes.NewReader(good.Bytes())); err != nil {
			t.Errorf("%s: good snapshot refused after it: %v", name, err)
		}
	}
}

// TestTenantRestoreBesideOtherTenants: a tenant restore needs only its
// own tenant empty, whatever the other tenants hold, and keeps their
// cached answers; a snapshot with other default dimensions is refused
// for that reason.
func TestTenantRestoreBesideOtherTenants(t *testing.T) {
	var v1 bytes.Buffer
	if err := buildLoadedEngine(t).Snapshot(&v1); err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t)
	def := e.Tenant(DefaultTenant)
	setupTenant(t, def)
	if _, err := def.Answer("q"); err != nil {
		t.Fatal(err)
	}
	tn := e.Tenant("t")
	if err := tn.Restore(bytes.NewReader(v1.Bytes())); err != nil {
		t.Fatalf("restore into an empty tenant beside a populated one: %v", err)
	}
	if _, err := def.Answer("q"); err != nil {
		t.Fatal(err)
	}
	if hits := def.Stats().AnswerCacheHits; hits != 1 {
		t.Fatalf("default tenant cache hits %d after a restore into another tenant, want 1", hits)
	}
	if err := tn.Restore(bytes.NewReader(v1.Bytes())); err == nil {
		t.Fatal("restore into a populated tenant succeeded")
	}
	var snap snapshot
	if err := json.Unmarshal(v1.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	snap.Defaults.Seed++
	other, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tenant("u").Restore(bytes.NewReader(other)); err == nil || !strings.Contains(err.Error(), "default sketch config") {
		t.Fatalf("restore with other default dimensions: %v, want a default sketch config error", err)
	}
}

// fuzzOpts keeps FuzzRestore's snapshots small: the fuzzer mutates and
// minimizes whole bodies, and sketch blobs dominate their size.
func fuzzOpts() Options {
	return Options{SketchConfig: core.Config{Tables: 2, Buckets: 4, Seed: 7}}
}

// Restore bodies the live API would refuse: default dimensions
// RegisterQuery rejects, a stream DeclareStream rejects, and a query
// whose 16 × 2^20 synopsis the body does not carry.
const (
	badDefaultsBody = `{"version":1,"defaults":{"Tables":0,"Buckets":0,"Seed":0}}`
	badStreamBody   = `{"version":1,"defaults":{"Tables":2,"Buckets":4,"Seed":7},"streams":{"F":{"domain":0,"count":-1}}}`
	uncarriedBody   = `{"version":1,"defaults":{"Tables":16,"Buckets":1048576,"Seed":1},"streams":{"F":{"domain":1024,"count":0}},` +
		`"queries":[{"name":"q","agg":0,"left":{"stream":"F"},"right":{"stream":"F"}}]}`
)

// offDefaultsBody is a snapshot as an engine that let a query override
// the sketch config wrote it: the query and the synopsis it carries name
// a 3 × 8 config, and the defaults are the fuzz engines' 2 × 4.
func offDefaultsBody(t testing.TB) []byte {
	t.Helper()
	sk, err := core.NewHashSketch(core.Config{Tables: 3, Buckets: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cfg := `{"Tables":3,"Buckets":8,"Seed":1}`
	return []byte(`{"version":1,"defaults":{"Tables":2,"Buckets":4,"Seed":7},"streams":{"F":{"domain":64,"count":0}},` +
		`"queries":[{"name":"q","agg":0,"left":{"stream":"F"},"right":{"stream":"F"},"config":` + cfg + `}],` +
		`"synopses":[{"stream":"F","config":` + cfg + `,"blob":"` + base64.StdEncoding.EncodeToString(blob) + `"}]}`)
}

// TestRestoreRefusesSynopsisOffDefaults: a synopsis whose config differs
// from the body's defaults is refused by both restores, which install
// nothing and then take a good snapshot.
func TestRestoreRefusesSynopsisOffDefaults(t *testing.T) {
	body := offDefaultsBody(t)
	e := restoreFuzzEngine(t, DefaultTenant, "t")
	for _, tenant := range []string{"", "t"} {
		restore := e.Restore
		if tenant != "" {
			restore = e.Tenant(tenant).Restore
		}
		if err := restore(bytes.NewReader(body)); err == nil || !strings.Contains(err.Error(), "differs from the defaults") {
			t.Fatalf("tenant %q: restore of a synopsis off the defaults: %v, want a refusal", tenant, err)
		}
		if st := e.Stats(); st.Streams != 0 || st.Queries != 0 || st.Synopses != 0 {
			t.Fatalf("tenant %q: refused restore left %d streams, %d queries, %d synopses", tenant, st.Streams, st.Queries, st.Synopses)
		}
	}
	if err := e.Restore(bytes.NewReader(fuzzSeedSnapshot(t, false))); err != nil {
		t.Fatalf("good snapshot refused after it: %v", err)
	}
}

// restoreFuzzEngine is an empty engine, its pipeline not started, with
// the predicate "low" = [0, 31] registered in each of tenants.
func restoreFuzzEngine(t testing.TB, tenants ...string) *Engine {
	t.Helper()
	e := idleEngine(t, fuzzOpts())
	for _, tenant := range tenants {
		if err := e.Tenant(tenant).RegisterPredicate("low", Predicate{Max: 31}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// fuzzSeedSnapshot is a snapshot with a plain, a predicate and two
// windowed queries (one a single element) over fed streams. It carries
// the fuzz engines' predicate "low" and one they lack, "mid", which no
// query uses. v2 adds a quota and a watch, which only the version-2
// layout carries.
func fuzzSeedSnapshot(f testing.TB, v2 bool) []byte {
	e := restoreFuzzEngine(f, DefaultTenant)
	if err := e.StartIngest(IngestConfig{Workers: 2}); err != nil {
		f.Fatal(err)
	}
	tn := e.Tenant(DefaultTenant)
	if err := tn.RegisterPredicate("mid", Predicate{Min: 16, Max: 47}); err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{"F", "G"} {
		if err := tn.DeclareStream(s, 64); err != nil {
			f.Fatal(err)
		}
	}
	for _, spec := range []QuerySpec{
		{Name: "plain", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}},
		{Name: "pred", Agg: Sum, Left: Side{Stream: "F", Predicate: "low"}, Right: Side{Stream: "G"}},
		{Name: "win", Agg: Count, Left: Side{Stream: "F", WindowLen: 8, WindowBuckets: 2}, Right: Side{Stream: "G"}},
		{Name: "last", Agg: Count, Left: Side{Stream: "G", WindowLen: 1, WindowBuckets: 1}, Right: Side{Stream: "F"}},
	} {
		if err := tn.RegisterQuery(spec); err != nil {
			f.Fatal(err)
		}
	}
	for i := uint64(0); i < 13; i++ {
		update(f, tn, "F", i*5%64, 1)
		update(f, tn, "G", i*3%64, 2)
	}
	if v2 {
		if err := e.SetQuota(DefaultTenant, Quota{MaxSynopsisWords: 1000}); err != nil {
			f.Fatal(err)
		}
		if err := tn.RegisterWatch("plain", monitor.WatchConfig{High: 10, Low: 5}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestore drives Engine.Restore and Tenant.Restore with arbitrary
// bodies. A refused body must leave the engine restorable; an accepted
// one must re-snapshot to the same bytes through a fresh engine, and
// every stream it declared must take an in-domain update once the
// pipeline starts (started only then, to keep the refusals cheap).
func FuzzRestore(f *testing.F) {
	v1, v2 := fuzzSeedSnapshot(f, false), fuzzSeedSnapshot(f, true)
	// conflicting carries "low" with a range other than the fuzz
	// engines' registered one.
	var snap snapshot
	if err := json.Unmarshal(v1, &snap); err != nil {
		f.Fatal(err)
	}
	snap.Predicates["low"] = Predicate{Max: 7}
	conflicting, err := json.Marshal(&snap)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v1, v2, []byte(badDefaultsBody), []byte(badStreamBody), []byte(uncarriedBody), conflicting, offDefaultsBody(f)} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, body []byte, scoped bool) {
		e, fresh := restoreFuzzEngine(t, DefaultTenant, "t"), restoreFuzzEngine(t, DefaultTenant, "t")
		restore, snapshot := e.Restore, e.Snapshot
		freshRestore, freshSnapshot, good := fresh.Restore, fresh.Snapshot, v2
		if scoped {
			restore, snapshot = e.Tenant("t").Restore, e.Tenant("t").Snapshot
			freshRestore, freshSnapshot, good = fresh.Tenant("t").Restore, fresh.Tenant("t").Snapshot, v1
		}
		if err := restore(bytes.NewReader(body)); err != nil {
			if err := restore(bytes.NewReader(good)); err != nil {
				t.Fatalf("good snapshot refused after a failed restore: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := snapshot(&first); err != nil {
			t.Fatal(err)
		}
		if err := freshRestore(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-snapshot refused: %v", err)
		}
		if err := freshSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot changed through a restore:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		if err := e.StartIngest(IngestConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		domains := make(map[nsKey]uint64, len(e.streams))
		for key, info := range e.streams {
			domains[key] = info.domain
		}
		e.mu.Unlock()
		for key, domain := range domains {
			u := []stream.Update{{Value: domain - 1, Weight: 1}}
			if err := e.Tenant(key.tenant).IngestBatch(key.name, u); err != nil {
				t.Fatalf("restored stream %+v refused an in-domain update: %v", key, err)
			}
		}
	})
}
