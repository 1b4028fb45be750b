package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
	"skimsketch/internal/window"
	"skimsketch/internal/workload"
)

// small is the model of the predicate ingestTestEngine registers for
// query "qp", [0, 511].
func small(v uint64) bool { return v < 512 }

// ingestTestEngine builds an engine with streams F and G, a plain COUNT
// query, a predicated query and a windowed query, so batches exercise
// every synopsis flavour (sketch, predicate-filtered sketch, window).
func ingestTestEngine(t *testing.T, cfg IngestConfig) *Engine {
	t.Helper()
	e := startEngine(t, defaultOpts(), cfg)
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterPredicate("small", Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []QuerySpec{
		{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}},
		{Name: "qp", Agg: Count, Left: Side{Stream: "F", Predicate: "small"}, Right: Side{Stream: "G"}},
		{Name: "qw", Agg: Count, Left: Side{Stream: "F", WindowLen: 4000, WindowBuckets: 4}, Right: Side{Stream: "G"}},
	} {
		if err := tn.RegisterQuery(spec); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// ingestWorkload draws a deterministic pair of update streams.
func ingestWorkload(t *testing.T, n int) (fs, gs []stream.Update) {
	t.Helper()
	zf, err := workload.NewZipf(1024, 1.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	zg, err := workload.NewZipf(1024, 1.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MakeStream(zf, n), workload.MakeStream(zg, n)
}

// modelBlob is the reference a served synopsis must match byte for
// byte: the updates folded one at a time, in order, through keep (nil
// accepts all) into a fresh synopsis with the engine's seeds — a
// core.HashSketch, or for a windowed side a window rolled up by
// Combined, as QuerySketches serves it.
func modelBlob(t *testing.T, side Side, keep func(v uint64) bool, updates []stream.Update) string {
	t.Helper()
	cfg := defaultOpts().SketchConfig
	var fold func(v uint64, w int64)
	var served func() *core.HashSketch
	if side.WindowLen > 0 {
		win, err := window.New(side.WindowLen, side.WindowBuckets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fold, served = win.Update, win.Combined
	} else {
		sk, err := core.NewHashSketch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fold, served = sk.Update, func() *core.HashSketch { return sk }
	}
	for _, u := range updates {
		if keep == nil || keep(u.Value) {
			fold(u.Value, u.Weight)
		}
	}
	return blob(t, served())
}

// checkModel compares a query's served synopsis pair with its model.
func checkModel(t *testing.T, tn *Tenant, query string, left, right string) {
	t.Helper()
	qs, err := tn.QuerySketches(query)
	if err != nil {
		t.Fatal(err)
	}
	if blob(t, qs.Left) != left {
		t.Errorf("query %s: left synopsis differs from the model", query)
	}
	if blob(t, qs.Right) != right {
		t.Errorf("query %s: right synopsis differs from the model", query)
	}
}

// TestIngestBatchSequentialEquivalence pins the exactness guarantee at
// the engine level against a model: for every pipeline shape, batched
// and sharded ingest leave every synopsis flavour byte-equal to the same
// updates folded one at a time into fresh synopses.
func TestIngestBatchSequentialEquivalence(t *testing.T) {
	const n = 6000
	fs, gs := ingestWorkload(t, n)
	g := modelBlob(t, Side{}, nil, gs)
	want := map[string]string{
		"q":  modelBlob(t, Side{}, nil, fs),
		"qp": modelBlob(t, Side{}, small, fs),
		"qw": modelBlob(t, Side{WindowLen: 4000, WindowBuckets: 4}, nil, fs),
	}
	for workers := 1; workers <= 4; workers++ {
		for _, bs := range []int{1, 13, 64} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, bs), func(t *testing.T) {
				e := ingestTestEngine(t, IngestConfig{Workers: workers, BatchSize: bs, QueueDepth: 8})
				tn := e.Tenant(DefaultTenant)
				const chunk = 97 // deliberately not a divisor of n
				for off := 0; off < n; off += chunk {
					end := min(off+chunk, n)
					if err := tn.IngestBatch("F", fs[off:end]); err != nil {
						t.Fatal(err)
					}
					if err := tn.IngestBatch("G", gs[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				for q, left := range want {
					checkModel(t, tn, q, left, g)
				}
				st := e.IngestStats()
				if st.UpdatesEnqueued != 2*n || st.UpdatesApplied != 2*n {
					t.Fatalf("ingest counters enqueued=%d applied=%d, want both %d", st.UpdatesEnqueued, st.UpdatesApplied, 2*n)
				}
				if st.QueueDepth != 0 {
					t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
				}
				if st.Batches == 0 || st.AvgBatchFill <= 0 {
					t.Fatalf("batch counters not populated: %+v", st)
				}
			})
		}
	}
}

// TestBacklogMatchesModel holds a coalesced backlog to the model: with
// the one worker parked, many small two-stream requests with deletes
// and mixed weights queue up; unparked, the worker folds them in runs of
// thousands of updates per route, so the sketches combine duplicate
// values and the window rotates inside a run. Every synopsis, net and
// gross included, must still be byte-equal to the one-at-a-time model.
func TestBacklogMatchesModel(t *testing.T) {
	const requests = 300
	e := ingestTestEngine(t, IngestConfig{Workers: 1, BatchSize: 64, QueueDepth: 2 * requests})
	tn := e.Tenant(DefaultTenant)
	zf, err := workload.NewZipf(1024, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var fs, gs []stream.Update
	var groups [][]stream.Group
	for r := range requests {
		n := 10 + r%21
		f, g := make([]stream.Update, n), make([]stream.Update, n)
		for i := range n {
			w := int64((r+i)%7 - 3) // deletes, inserts and heavier weights
			if w == 0 {
				w = 5
			}
			f[i] = stream.Update{Value: zf.Next(), Weight: w}
			g[i] = stream.Update{Value: zf.Next(), Weight: -w}
		}
		fs, gs = append(fs, f...), append(gs, g...)
		groups = append(groups, []stream.Group{{Name: "F", Updates: f}, {Name: "G", Updates: g}})
	}
	unpark := ParkWorker(e)
	for _, req := range groups {
		if err := tn.IngestGroups(req, nil); err != nil {
			t.Error(err)
			break
		}
	}
	if depth := e.IngestStats().QueueDepth; depth != 2*requests {
		t.Errorf("queue depth %d behind the parked worker, want %d", depth, 2*requests)
	}
	unpark()
	g := modelBlob(t, Side{}, nil, gs)
	checkModel(t, tn, "q", modelBlob(t, Side{}, nil, fs), g)
	checkModel(t, tn, "qp", modelBlob(t, Side{}, small, fs), g)
	checkModel(t, tn, "qw", modelBlob(t, Side{WindowLen: 4000, WindowBuckets: 4}, nil, fs), g)
	st := e.IngestStats()
	total := int64(len(fs) + len(gs))
	if st.UpdatesEnqueued != total || st.UpdatesApplied != total || st.QueueDepth != 0 {
		t.Fatalf("enqueued %d, applied %d, queue depth %d; want %d, %d, 0", st.UpdatesEnqueued, st.UpdatesApplied, st.QueueDepth, total, total)
	}
	// Runs of at least a window bucket (1000 updates): the backlog was
	// folded coalesced, not item by item.
	if st.Folds == 0 || st.UpdatesApplied/st.Folds < 1000 {
		t.Fatalf("%d updates in %d folds: the backlog was not coalesced", st.UpdatesApplied, st.Folds)
	}
}

// TestBacklogRounds pins where a worker round ends. Routes r1 and r2
// share synopsis a, as a stream's route before and after a query
// registration does, so a round holds back the first item on the other
// one; and a round ends after a barrier, leaving what is queued behind
// it for the next.
func TestBacklogRounds(t *testing.T) {
	a, c := &synEntry{id: 0}, &synEntry{id: 1}
	r1, r2, other := []*synEntry{a}, []*synEntry{a, c}, []*synEntry{{id: 2}}
	item := func(route []*synEntry) ingestItem {
		return ingestItem{entries: route, batch: make([]stream.Update, 3)}
	}
	ch := make(chan ingestItem, 8)
	for _, it := range []ingestItem{item(other), item(r1), item(other), item(r2), item(r1), {barrier: new(sync.WaitGroup)}, item(r1)} {
		ch <- it
	}
	var b backlog
	type round struct {
		items, routes int
		held          bool
	}
	var got []round
	first := <-ch
	for {
		next, held := b.take(first, ch)
		got = append(got, round{len(b.items), len(b.routes), held})
		if !held {
			break
		}
		first = next
	}
	want := []round{{3, 2, true}, {1, 1, true}, {2, 1, false}}
	if !slices.Equal(got, want) || len(ch) != 1 {
		t.Fatalf("rounds %v with %d left queued, want %v with 1", got, len(ch), want)
	}
}

// TestConcurrentIngestQueryStats hammers the pipeline with concurrent
// producers, queriers, statters and snapshotters under -race, then
// reconciles exactly: every update inserts value 0, so the join estimate
// is exactly nF·nG (a single-value stream is estimated exactly) and any
// lost update would change the product.
func TestConcurrentIngestQueryStats(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 4, BatchSize: 16, QueueDepth: 4})
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 16); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 16); err != nil {
		t.Fatal(err)
	}
	err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	if err != nil {
		t.Fatal(err)
	}

	const (
		producers  = 4
		batches    = 40
		batchElems = 23
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		name := "F"
		if p%2 == 1 {
			name = "G"
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			batch := make([]stream.Update, batchElems)
			for i := range batch {
				batch[i] = stream.Insert(0)
			}
			for b := 0; b < batches; b++ {
				if err := tn.IngestBatch(name, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	// Concurrent readers: answers, stats and snapshots must all be safe
	// (and torn-free) while the producers run.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					if _, err := tn.Answer("q"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					e.Stats()
				case 2:
					var buf bytes.Buffer
					if err := e.Snapshot(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	e.Flush()

	perStream := int64(producers / 2 * batches * batchElems)
	st := e.Stats()
	if st.UpdateCounts["F"] != perStream || st.UpdateCounts["G"] != perStream {
		t.Fatalf("update counts F=%d G=%d, want %d each", st.UpdateCounts["F"], st.UpdateCounts["G"], perStream)
	}
	a, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if want := perStream * perStream; a.Estimate != want {
		t.Fatalf("final estimate %d, want exactly %d (lost or duplicated updates)", a.Estimate, want)
	}
	ist := e.IngestStats()
	if ist.UpdatesApplied != 2*perStream {
		t.Fatalf("applied %d updates, want %d", ist.UpdatesApplied, 2*perStream)
	}
}

// TestSnapshotNeverTorn is the regression test for the snapshot
// consistency contract: two synopses over the same stream must always
// agree on how many batches they have absorbed, even while snapshots race
// with concurrent sharded ingestion. The "all" predicate forces a second,
// distinct synopsis over F, so with >1 worker the two synopses live on
// different shards and every batch is fanned out across workers.
func TestSnapshotNeverTorn(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 4, BatchSize: 8, QueueDepth: 2})
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 16); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterPredicate("all", Predicate{Max: 15}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []QuerySpec{
		{Name: "q1", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "F"}},
		{Name: "q2", Agg: Count, Left: Side{Stream: "F", Predicate: "all"}, Right: Side{Stream: "F", Predicate: "all"}},
	} {
		if err := tn.RegisterQuery(spec); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var producers sync.WaitGroup
	for p := 0; p < 3; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			for b := 0; b < 60; b++ {
				// Variable batch sizes so a torn application would show
				// up as a NetCount mismatch, not just a constant offset.
				batch := make([]stream.Update, b%13+1)
				for i := range batch {
					batch[i] = stream.Insert(uint64((b + i) % 16))
				}
				if err := tn.IngestBatch("F", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	go func() { producers.Wait(); close(done) }()

	checked := 0
	for {
		select {
		case <-done:
			if checked == 0 {
				t.Fatal("no snapshots taken while ingesting")
			}
			return
		default:
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var snap snapshot
		if err := json.NewDecoder(&buf).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Synopses) != 2 {
			t.Fatalf("expected 2 synopses in snapshot, got %d", len(snap.Synopses))
		}
		nets := make([]int64, 0, 2)
		for _, s := range snap.Synopses {
			var sk core.HashSketch
			if err := sk.UnmarshalBinary(s.Blob); err != nil {
				t.Fatal(err)
			}
			nets = append(nets, sk.NetCount())
		}
		if nets[0] != nets[1] {
			t.Fatalf("torn snapshot: synopsis net counts %d != %d", nets[0], nets[1])
		}
		checked++
	}
}

// TestIngestValidation checks the synchronous-rejection contract: a batch
// with any out-of-domain value (or an unknown stream) is rejected whole.
func TestIngestValidation(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 8); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("nope", []stream.Update{stream.Insert(1)}); err == nil {
		t.Fatal("expected unknown-stream error")
	}
	bad := []stream.Update{stream.Insert(1), stream.Insert(99)}
	if err := tn.IngestBatch("F", bad); err == nil {
		t.Fatal("expected out-of-domain error")
	}
	if got := e.Stats().UpdateCounts["F"]; got != 0 {
		t.Fatalf("rejected batch still counted: %d updates", got)
	}
	// Empty batches are a no-op even for unknown streams' error path.
	if err := tn.IngestBatch("F", nil); err != nil {
		t.Fatal(err)
	}
}

// TestStartStopIngest checks the pipeline lifecycle: double-start fails,
// stop drains, stop twice is a no-op, ingestion is refused after a stop,
// and the synopses stay readable.
func TestStartStopIngest(t *testing.T) {
	e := idleEngine(t, defaultOpts())
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 8); err != nil {
		t.Fatal(err)
	}
	err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "F"}})
	if err != nil {
		t.Fatal(err)
	}
	e.Flush() // no-op without a pipeline
	if err := e.StartIngest(IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.StartIngest(IngestConfig{}); err == nil {
		t.Fatal("expected double-start error")
	}
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(3), stream.Insert(3)}); err != nil {
		t.Fatal(err)
	}
	e.StopIngest()
	e.StopIngest() // idempotent
	// Queued work was drained by StopIngest.
	if got := e.IngestStats().UpdatesApplied; got != 2 {
		t.Fatalf("applied %d updates after stop, want 2", got)
	}
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(3)}); !errors.Is(err, ErrNotIngesting) {
		t.Fatalf("ingest after stop: %v, want ErrNotIngesting", err)
	}
	a, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != 4 { // f_3 = 2, self join = 4, single value is exact
		t.Fatalf("estimate %d, want 4", a.Estimate)
	}
}

// TestUnroutedUpdatesCounted pins one meaning for the ingest counters:
// an update to a declared stream that no query listens to is counted as
// unrouted, never as applied, so after a flush enqueued == applied +
// unrouted — and listened updates are all applied. A request refused
// because no pipeline runs counts nothing.
func TestUnroutedUpdatesCounted(t *testing.T) {
	groups := []stream.Group{
		{Name: "F", Updates: []stream.Update{stream.Insert(1), stream.Insert(2), stream.Insert(3), stream.Insert(4), stream.Insert(5)}},
		{Name: "U", Updates: []stream.Update{stream.Insert(1), stream.Insert(2), stream.Insert(3), stream.Insert(4), stream.Insert(5)}},
		{Name: "G", Updates: []stream.Update{stream.Insert(6), stream.Insert(7), stream.Insert(8), stream.Insert(9)}},
		{Name: "U", Updates: []stream.Update{stream.Insert(6), stream.Insert(7), stream.Insert(8), stream.Insert(9)}},
	}
	const listened, unlistened = 9, 9
	start := func(t *testing.T, e *Engine) {
		if err := e.StartIngest(IngestConfig{Workers: 2, BatchSize: 2, QueueDepth: 4}); err != nil {
			t.Fatal(err)
		}
	}
	ingest := func(t *testing.T, e *Engine) {
		if err := e.Tenant(DefaultTenant).IngestGroups(groups, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		feed func(t *testing.T, e *Engine)
	}{
		{"Update", func(t *testing.T, e *Engine) {
			// One element per request.
			start(t, e)
			for _, g := range groups {
				for _, u := range g.Updates {
					update(t, e.Tenant(DefaultTenant), g.Name, u.Value, u.Weight)
				}
			}
		}},
		{"synchronous IngestGroups", func(t *testing.T, e *Engine) {
			// Refused before StartIngest, admitted after.
			if err := e.Tenant(DefaultTenant).IngestGroups(groups, nil); !errors.Is(err, ErrNotIngesting) {
				t.Fatalf("IngestGroups before StartIngest: %v, want ErrNotIngesting", err)
			}
			start(t, e)
			ingest(t, e)
		}},
		{"pipeline", func(t *testing.T, e *Engine) {
			start(t, e)
			ingest(t, e)
			e.Flush()
		}},
		{"stopped-pipeline fallback", func(t *testing.T, e *Engine) {
			// StopIngest drains what was admitted and refuses the rest.
			start(t, e)
			ingest(t, e)
			e.StopIngest()
			if err := e.Tenant(DefaultTenant).IngestGroups(groups, nil); !errors.Is(err, ErrNotIngesting) {
				t.Fatalf("IngestGroups after StopIngest: %v, want ErrNotIngesting", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := idleEngine(t, defaultOpts())
			tn := e.Tenant(DefaultTenant)
			for _, s := range []string{"F", "G", "U"} {
				if err := tn.DeclareStream(s, 16); err != nil {
					t.Fatal(err)
				}
			}
			if err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}); err != nil {
				t.Fatal(err)
			}
			tc.feed(t, e)
			st := e.Stats().Ingest
			if st.UpdatesEnqueued != listened+unlistened || st.UpdatesApplied != listened || st.UpdatesUnrouted != unlistened {
				t.Fatalf("enqueued=%d applied=%d unrouted=%d, want %d = %d + %d",
					st.UpdatesEnqueued, st.UpdatesApplied, st.UpdatesUnrouted, listened+unlistened, listened, unlistened)
			}
			if p := tn.Stats().PendingUpdates; p != 0 {
				t.Fatalf("pending gauge %d after flush, want 0", p)
			}
		})
	}
}

// TestStatsReconcileUnderIngest: every quiesced Stats read sees each
// multi-group request whole, so while producers on several goroutines
// ingest into several tenants, every read reconciles exactly — enqueued
// == applied + unrouted, and no tenant has an update pending.
func TestStatsReconcileUnderIngest(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 2, BatchSize: 4, QueueDepth: 2})
	tenants := []string{DefaultTenant, "a", "b"}
	for _, name := range tenants {
		tn := e.Tenant(name)
		setupTenant(t, tn)
		if err := tn.DeclareStream("U", 1024); err != nil { // unrouted
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tn := e.Tenant(tenants[p%len(tenants)])
			for i := 0; i < 200; i++ {
				v := uint64(i*31+p) % 1024
				if err := tn.IngestGroups([]stream.Group{
					{Name: "F", Updates: sameValueBatch(i%7+1, v)},
					{Name: "U", Updates: sameValueBatch(3, v)},
					{Name: "G", Updates: sameValueBatch(i%5+1, v)},
				}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }() // no producer outlives the test
	for reads := 0; ; reads++ {
		st := e.Stats()
		in := st.Ingest
		if in.UpdatesEnqueued != in.UpdatesApplied+in.UpdatesUnrouted {
			t.Fatalf("read %d: enqueued %d != applied %d + unrouted %d",
				reads, in.UpdatesEnqueued, in.UpdatesApplied, in.UpdatesUnrouted)
		}
		for name, ts := range st.Tenants {
			if ts.PendingUpdates != 0 {
				t.Fatalf("read %d: tenant %q has %d updates pending", reads, name, ts.PendingUpdates)
			}
		}
		select {
		case <-done:
			if in.UpdatesEnqueued == 0 {
				t.Fatal("no update ingested")
			}
			return
		default:
		}
	}
}
