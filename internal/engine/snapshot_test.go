package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"skimsketch/internal/workload"
)

// buildLoadedEngine populates an engine with streams, predicates,
// queries (plain, predicated, windowed) and traffic.
func buildLoadedEngine(t testing.TB) *Engine {
	t.Helper()
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterPredicate("low", Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	specs := []QuerySpec{
		{Name: "plain", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}},
		{Name: "pred", Agg: Count, Left: Side{Stream: "F", Predicate: "low"}, Right: Side{Stream: "G"}},
		{Name: "win", Agg: Count,
			Left:  Side{Stream: "F", WindowLen: 1000, WindowBuckets: 4},
			Right: Side{Stream: "G"}},
	}
	for _, s := range specs {
		if err := tn.RegisterQuery(s); err != nil {
			t.Fatal(err)
		}
	}
	zf, _ := workload.NewZipf(1024, 1.2, 1)
	zg, _ := workload.NewZipf(1024, 1.2, 2)
	for i := 0; i < 5000; i++ {
		update(t, tn, "F", zf.Next(), 1)
		update(t, tn, "G", zg.Next(), 1)
	}
	return e
}

// TestSnapshotRestoreRoundTrip: the snapshot carries the predicate
// "low", so it restores into a fresh engine with nothing registered,
// and every query answers bit-identically.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := buildLoadedEngine(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := mustEngine(t)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Every query must answer identically.
	from, to := orig.Tenant(DefaultTenant), restored.Tenant(DefaultTenant)
	for _, q := range from.Queries() {
		a, err := from.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := to.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %q: restored answer %+v differs from %+v", q, b, a)
		}
	}
	// Stats (counts, sharing, words) must survive.
	so, sr := orig.Stats(), restored.Stats()
	if so.Synopses != sr.Synopses || so.TotalWords != sr.TotalWords ||
		so.UpdateCounts["F"] != sr.UpdateCounts["F"] {
		t.Fatalf("stats diverged: %+v vs %+v", so, sr)
	}

	// The restored engine keeps working: further updates shift answers in
	// both engines identically.
	update(t, from, "F", 3, 100)
	update(t, to, "F", 3, 100)
	update(t, from, "G", 3, 7)
	update(t, to, "G", 3, 7)
	a, _ := from.Answer("plain")
	b, _ := to.Answer("plain")
	if a.Estimate != b.Estimate {
		t.Fatalf("post-restore divergence: %d vs %d", a.Estimate, b.Estimate)
	}
}

// TestRestoreRequiresPredicates: a snapshot written before snapshots
// carried predicates (here, one with its predicates stripped) restores
// only once the predicates its queries name are registered.
func TestRestoreRequiresPredicates(t *testing.T) {
	var buf bytes.Buffer
	if err := buildLoadedEngine(t).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Predicates["low"] != (Predicate{Max: 511}) {
		t.Fatalf("snapshot carries predicates %+v, want low = [0,511]", snap.Predicates)
	}
	snap.Predicates = nil
	old, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	restored := mustEngine(t)
	if err := restored.Restore(bytes.NewReader(old)); err == nil ||
		!strings.Contains(err.Error(), "predicate") {
		t.Fatalf("expected predicate error, got %v", err)
	}
	if err := restored.Tenant(DefaultTenant).RegisterPredicate("low", Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(old)); err != nil {
		t.Fatalf("snapshot without predicates refused after registering them: %v", err)
	}
}

func TestRestoreRequiresEmptyEngine(t *testing.T) {
	orig := buildLoadedEngine(t)
	var buf bytes.Buffer
	orig.Snapshot(&buf)
	notEmpty := mustEngine(t)
	tn := notEmpty.Tenant(DefaultTenant)
	tn.DeclareStream("X", 8)
	tn.RegisterPredicate("low", Predicate{Max: 511})
	if err := notEmpty.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected non-empty-engine error")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	e := mustEngine(t)
	if err := e.Restore(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected JSON error")
	}
	if err := e.Restore(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("expected version error")
	}
}

// TestFailedRestoreLeavesEngineRestorable: a snapshot rejected for one
// truncated SKWN blob must leave the engine as empty as it found it, so
// the good snapshot that follows restores.
func TestFailedRestoreLeavesEngineRestorable(t *testing.T) {
	orig := buildLoadedEngine(t)
	var good bytes.Buffer
	if err := orig.Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(good.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for i, s := range snap.Synopses {
		if s.WindowLen > 0 {
			snap.Synopses[i].Blob = s.Blob[:len(s.Blob)-5]
			truncated++
		}
	}
	if truncated != 1 {
		t.Fatalf("truncated %d windowed synopses, want 1", truncated)
	}
	bad, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}

	e := mustEngine(t)
	if err := e.Tenant(DefaultTenant).RegisterPredicate("low", Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("restore accepted a truncated SKWN blob")
	}
	if err := e.Restore(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("good snapshot refused after a failed restore: %v", err)
	}
	from, to := orig.Tenant(DefaultTenant), e.Tenant(DefaultTenant)
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
			t.Fatalf("query %q: restored estimate %d differs from %d", q, b.Estimate, a.Estimate)
		}
	}
}

// TestFailedRestoreKeepsDefaults: a rejected snapshot must not install
// its default sketch config, which later registrations would inherit.
func TestFailedRestoreKeepsDefaults(t *testing.T) {
	var buf bytes.Buffer
	if err := buildLoadedEngine(t).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	snap.Defaults.Seed++
	bad, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	// The carried synopses keep the old seed, which the queries rebuilt
	// under the new defaults do not match: the restore fails.
	if err := e.Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("restore with mismatched default seed succeeded")
	}
	if err := tn.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "F"}}); err != nil {
		t.Fatal(err)
	}
	qs, err := tn.QuerySketches("q")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := qs.Left.Config(), defaultOpts().SketchConfig; got != want {
		t.Fatalf("synopsis config %+v after a failed restore, want the engine default %+v", got, want)
	}
}

// buildDeterministicEngine is two queries over four streams, one side
// windowed, fed a fixed sequence; with a quota on a second tenant it
// snapshots as version 2, without it as version 1.
func buildDeterministicEngine(t *testing.T, v2 bool) *Engine {
	t.Helper()
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	for _, s := range []string{"A", "B", "C", "D"} {
		if err := tn.DeclareStream(s, 256); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []QuerySpec{
		{Name: "ab", Agg: Count, Left: Side{Stream: "A"}, Right: Side{Stream: "B"}},
		{Name: "cd", Agg: Sum, Left: Side{Stream: "C", WindowLen: 40, WindowBuckets: 4}, Right: Side{Stream: "D"}},
	} {
		if err := tn.RegisterQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		for j, s := range []string{"A", "B", "C", "D"} {
			update(t, tn, s, (i*7+uint64(j)*31)%256, int64(j+1))
		}
	}
	if v2 {
		if err := e.SetQuota("other", Quota{MaxSynopsisWords: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSnapshotBytesDeterministic: the same engine, built 20 times,
// writes one snapshot, byte for byte, in each version, with and without
// a registered predicate; the digests are pinned so a layout change
// shows up here.
func TestSnapshotBytesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		v2, pred bool
		want     string
	}{
		{false, false, "a441ee7386822413c22ee736c55fa7625437144a7468d9bc8bb50584003a207c"},
		{true, false, "df1e94cec20ff6775451ee4c282990a7e0a1aafc66e5dd7dc7a86ca0cec827a9"},
		{false, true, "d14324d96e31b33a5a72664f3715cff672c23d2fb2a3e248fe72c9a623c86b34"},
		{true, true, "98fda43ef82dd784b7957d48801e19981221bdb49c46748d5b94a21df5ecfd04"},
	} {
		digests := make(map[string]bool)
		for i := 0; i < 20; i++ {
			e := buildDeterministicEngine(t, tc.v2)
			if tc.pred {
				if err := e.Tenant(DefaultTenant).RegisterPredicate("low", Predicate{Min: 1, Max: 127}); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := e.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			digests[fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))] = true
		}
		if len(digests) != 1 || !digests[tc.want] {
			t.Errorf("v2=%v pred=%v: %d distinct snapshot digests %v, want only %s", tc.v2, tc.pred, len(digests), digests, tc.want)
		}
	}
}
