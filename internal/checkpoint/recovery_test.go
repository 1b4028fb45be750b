package checkpoint_test

import (
	"io"
	"os"
	"testing"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// Crash-recovery property: because every synopsis is a linear projection
// of the frequency vector, checkpoint → restore → replay-the-tail must
// yield answers bit-identical to an uninterrupted run. These tests pin
// that end to end through the real Manager (real files, real rotation),
// over plain, predicated, and windowed synopses, across several seeds.

// startIngest starts e's ingest pipeline, tuned by cfg, until the test
// ends. A restored engine starts it after Restore, as sketchd does.
func startIngest(t *testing.T, e *engine.Engine, cfg engine.IngestConfig) {
	t.Helper()
	if err := e.StartIngest(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.StopIngest)
}

// buildEngine assembles an engine with one plain COUNT query, one
// predicated query, and one windowed query over two streams, ingesting
// through a 3-worker pipeline.
func buildEngine(t *testing.T, seed uint64) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 256, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	tn := e.Tenant(engine.DefaultTenant)
	if err := tn.DeclareStream("F", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 1024); err != nil {
		t.Fatal(err)
	}
	if err := tn.RegisterPredicate("low", engine.Predicate{Max: 511}); err != nil {
		t.Fatal(err)
	}
	queries := []engine.QuerySpec{
		{Name: "plain", Agg: engine.Count,
			Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}},
		{Name: "pred", Agg: engine.Count,
			Left: engine.Side{Stream: "F", Predicate: "low"}, Right: engine.Side{Stream: "G"}},
		{Name: "windowed", Agg: engine.Count,
			Left:  engine.Side{Stream: "F"},
			Right: engine.Side{Stream: "G", WindowLen: 400, WindowBuckets: 4}},
	}
	for _, q := range queries {
		if err := tn.RegisterQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	startIngest(t, e, engine.IngestConfig{Workers: 3, BatchSize: 64})
	return e
}

func makeStreams(t *testing.T, seed uint64, n int) (fs, gs []stream.Update) {
	t.Helper()
	zf, err := workload.NewZipf(1024, 1.1, int64(seed*2+1))
	if err != nil {
		t.Fatal(err)
	}
	zg, err := workload.NewZipf(1024, 1.2, int64(seed*2+2))
	if err != nil {
		t.Fatal(err)
	}
	fs = workload.WithDeletes(workload.MakeStream(zf, n), 0.1, int64(seed+17))
	gs = workload.MakeStream(zg, n)
	return fs, gs
}

func ingest(t *testing.T, e *engine.Engine, fs, gs []stream.Update) {
	t.Helper()
	if err := e.Tenant(engine.DefaultTenant).IngestBatch("F", fs); err != nil {
		t.Fatal(err)
	}
	if err := e.Tenant(engine.DefaultTenant).IngestBatch("G", gs); err != nil {
		t.Fatal(err)
	}
}

func answers(t *testing.T, e *engine.Engine) map[string]engine.Answer {
	t.Helper()
	out := make(map[string]engine.Answer, 3)
	for _, q := range []string{"plain", "pred", "windowed"} {
		a, err := e.Tenant(engine.DefaultTenant).Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		out[q] = a
	}
	return out
}

// TestRecoveryBitIdentical: for several seeds, an engine checkpointed
// mid-stream, restored into a fresh engine, and fed the remaining tail
// answers every query bit-identically to the engine that never stopped.
func TestRecoveryBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m, err := checkpoint.NewManager(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		uninterrupted := buildEngine(t, seed)
		fs, gs := makeStreams(t, seed, 4000)
		cut := 1000 + int(seed)*500 // vary the crash point with the seed

		// Head, then checkpoint (through the real file manager).
		ingest(t, uninterrupted, fs[:cut], gs[:cut])
		if err := m.Save(uninterrupted.Snapshot); err != nil {
			t.Fatal(err)
		}

		// "Crash": a fresh engine restores the checkpoint, predicates
		// included.
		recovered, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 256, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		path, err := m.Load(func(r io.Reader) error { return recovered.Restore(r) })
		if err != nil {
			t.Fatal(err)
		}
		if path != m.CurrentPath() {
			t.Fatalf("seed %d: restored %s", seed, path)
		}
		startIngest(t, recovered, engine.IngestConfig{Workers: 1})

		// Replay the tail into both engines.
		ingest(t, uninterrupted, fs[cut:], gs[cut:])
		ingest(t, recovered, fs[cut:], gs[cut:])

		want, got := answers(t, uninterrupted), answers(t, recovered)
		for q, w := range want {
			if g := got[q]; g != w {
				t.Errorf("seed %d, query %s: recovered %+v, uninterrupted %+v", seed, q, g, w)
			}
		}
	}
}

// TestRecoveryThroughConcurrentPipeline: the same property holds when
// the head (before the checkpoint) and the tail (after restore) go
// through pipelines of different shapes — sharding and batching never
// change a synopsis.
func TestRecoveryThroughConcurrentPipeline(t *testing.T) {
	const seed = 7
	m, err := checkpoint.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted := buildEngine(t, seed)
	fs, gs := makeStreams(t, seed, 4000)
	const cut = 2000

	ingest(t, uninterrupted, fs[:cut], gs[:cut])
	// Snapshot quiesces the pipeline itself — no explicit Flush needed.
	if err := m.Save(uninterrupted.Snapshot); err != nil {
		t.Fatal(err)
	}

	recovered, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 256, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(func(r io.Reader) error { return recovered.Restore(r) }); err != nil {
		t.Fatal(err)
	}
	startIngest(t, recovered, engine.IngestConfig{Workers: 2, BatchSize: 32})

	ingest(t, uninterrupted, fs[cut:], gs[cut:])
	ingest(t, recovered, fs[cut:], gs[cut:])
	want, got := answers(t, uninterrupted), answers(t, recovered)
	for q, w := range want {
		if g := got[q]; g != w {
			t.Errorf("query %s: recovered %+v, uninterrupted %+v", q, g, w)
		}
	}
}

// TestTornCheckpointFallsBackToPreviousState: corrupting the newest
// checkpoint mid-file must not lose the engine — Load rejects it and
// restores the previous good checkpoint, whose answers match the state
// at the earlier save.
func TestTornCheckpointFallsBackToPreviousState(t *testing.T) {
	const seed = 3
	m, err := checkpoint.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := buildEngine(t, seed)
	fs, gs := makeStreams(t, seed, 3000)

	ingest(t, e, fs[:1500], gs[:1500])
	if err := m.Save(e.Snapshot); err != nil {
		t.Fatal(err)
	}
	wantOld := answers(t, e) // the state the previous checkpoint captured

	ingest(t, e, fs[1500:], gs[1500:])
	if err := m.Save(e.Snapshot); err != nil {
		t.Fatal(err)
	}

	// Tear the newest checkpoint: truncate it mid-payload.
	data, err := os.ReadFile(m.CurrentPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(m.CurrentPath(), data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 256, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.Load(func(r io.Reader) error { return recovered.Restore(r) })
	if err != nil {
		t.Fatal(err)
	}
	if path != m.PreviousPath() {
		t.Fatalf("restored %s, want the previous checkpoint", path)
	}
	got := answers(t, recovered)
	for q, w := range wantOld {
		if g := got[q]; g != w {
			t.Errorf("query %s: fallback answered %+v, previous state was %+v", q, g, w)
		}
	}
}
