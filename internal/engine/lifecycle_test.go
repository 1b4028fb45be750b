package engine

import (
	"errors"
	"io"
	"sync"
	"testing"

	"skimsketch/internal/stream"
)

// Regression tests for the pipeline lifecycle: sketchd's graceful exit
// calls Flush and StopIngest unconditionally, so both must be safe
// no-ops on an engine whose pipeline was never started, already
// stopped, or is being stopped concurrently; and ingest outside the
// pipeline's life is refused without counting anything.

// counters is the part of the ingest snapshot that moves only when an
// update is admitted, applied or refused.
func counters(e *Engine) [5]int64 {
	s := e.IngestStats()
	return [5]int64{s.UpdatesEnqueued, s.UpdatesApplied, s.UpdatesUnrouted, s.Batches, s.Rejected}
}

// refused asserts that an ingest request fails with ErrNotIngesting and
// leaves every ingest counter and the stream's count unchanged.
func refused(t *testing.T, e *Engine) {
	t.Helper()
	before, count := counters(e), e.Stats().UpdateCounts["F"]
	if err := e.Tenant(DefaultTenant).IngestBatch("F", []stream.Update{stream.Insert(1)}); !errors.Is(err, ErrNotIngesting) {
		t.Fatalf("IngestBatch without a running pipeline: %v, want ErrNotIngesting", err)
	}
	if after := counters(e); after != before {
		t.Fatalf("refused batch moved the ingest counters: %v -> %v", before, after)
	}
	if got := e.Stats().UpdateCounts["F"]; got != count {
		t.Fatalf("refused batch counted on F: %d -> %d", count, got)
	}
}

func TestStopFlushNeverStartedPipeline(t *testing.T) {
	e := idleEngine(t, defaultOpts())
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 8); err != nil {
		t.Fatal(err)
	}
	// None of these may panic or block on an engine whose pipeline was
	// never started.
	e.StopIngest()
	e.Flush()
	e.StopIngest()
	if e.IngestSaturated() {
		t.Fatal("a pipeline that does not exist cannot be saturated")
	}
	refused(t, e)

	// After a stop, ingest is refused the same way.
	if err := e.StartIngest(IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(1)}); err != nil {
		t.Fatal(err)
	}
	e.StopIngest()
	refused(t, e)
	if got := e.IngestStats().UpdatesEnqueued; got != 1 {
		t.Fatalf("enqueued %d updates, want 1", got)
	}
}

func TestFlushAfterStopIsNoOp(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 8); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(1)}); err != nil {
		t.Fatal(err)
	}
	e.StopIngest()
	flushes := e.IngestStats().Flushes
	e.Flush() // must not panic, block, or count as a drain barrier
	e.Flush()
	if got := e.IngestStats().Flushes; got != flushes {
		t.Fatalf("Flush after stop counted barriers: %d -> %d", flushes, got)
	}
}

// TestConcurrentStopStop races StopIngest with itself and with Flush;
// exactly one stop wins and nothing panics. Run with -race.
func TestConcurrentStopStop(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 2, BatchSize: 8})
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "F"}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i += 10 {
		batch := make([]stream.Update, 10)
		for j := range batch {
			batch[j] = stream.Insert(uint64((i + j) % 64))
		}
		if err := tn.IngestBatch("F", batch); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.StopIngest()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Flush()
		}()
	}
	wg.Wait()
	if got := e.IngestStats().UpdatesApplied; got != n {
		t.Fatalf("applied %d updates, want %d (stop must drain)", got, n)
	}
}

// TestReadsDuringStopIngestDrain runs Answer, Stats and Snapshot in a
// loop while StopIngest drains deep queues. A reader that finds the
// pipeline closed must find it drained too (StopIngest keeps fanMu until
// its workers exit), so a reader that overlapped a worker's apply would
// be reported under -race. A stopped pipeline cannot restart, so each
// round stops a fresh engine.
func TestReadsDuringStopIngestDrain(t *testing.T) {
	const rounds, chunks, batch = 8, 256, 64
	updates := make([]stream.Update, chunks*batch)
	for i := range updates {
		updates[i] = stream.Insert(uint64(i % 1024))
	}
	for r := 0; r < rounds; r++ {
		e := startEngine(t, defaultOpts(), IngestConfig{Workers: 2, BatchSize: batch, QueueDepth: chunks})
		tn := e.Tenant(DefaultTenant)
		for _, s := range []string{"F", "G"} {
			if err := tn.DeclareStream(s, 1024); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}}); err != nil {
			t.Fatal(err)
		}
		// F's and G's synopses sit on different workers, each now
		// holding chunks queued batches.
		groups := []stream.Group{{Name: "F", Updates: updates}, {Name: "G", Updates: updates}}
		if err := tn.IngestGroups(groups, nil); err != nil {
			t.Fatal(err)
		}
		start, stopped := make(chan struct{}), make(chan struct{})
		reads := []func() error{
			func() error { _, err := tn.Answer("q"); return err },
			func() error { e.Stats(); return nil },
			func() error { return e.Snapshot(io.Discard) },
		}
		var wg sync.WaitGroup
		for _, read := range reads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					if err := read(); err != nil {
						t.Error(err)
						return
					}
					select {
					case <-stopped:
						return
					default:
					}
				}
			}()
		}
		close(start)
		e.StopIngest()
		close(stopped)
		wg.Wait()
		if got, want := e.IngestStats().UpdatesApplied, int64(2*len(updates)); got != want {
			t.Fatalf("round %d: applied %d updates, want %d (stop must drain)", r, got, want)
		}
	}
}

// TestRestartIngestAfterStop: a stopped pipeline cannot be started
// again — the shard count is fixed for the engine's life — and the
// synopses stay readable.
func TestRestartIngestAfterStop(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 8); err != nil {
		t.Fatal(err)
	}
	err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "F"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(3), stream.Insert(3)}); err != nil {
		t.Fatal(err)
	}
	e.StopIngest()
	if err := e.StartIngest(IngestConfig{Workers: 3}); err == nil {
		t.Fatal("StartIngest after StopIngest succeeded")
	}
	refused(t, e)
	a, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != 4 { // f_3 = 2, self join = 4, single value is exact
		t.Fatalf("estimate %d, want 4", a.Estimate)
	}
}

// TestIngestSaturated drives the pipeline into saturation: with the
// worker parked, a batch fills the depth-1 queue, and the probe must
// report it. Unparking drains everything and the probe clears.
func TestIngestSaturated(t *testing.T) {
	e := idleEngine(t, defaultOpts())
	tn := e.Tenant(DefaultTenant)
	if err := tn.DeclareStream("F", 8); err != nil {
		t.Fatal(err)
	}
	if err := tn.DeclareStream("G", 8); err != nil {
		t.Fatal(err)
	}
	err := tn.RegisterQuery(QuerySpec{Name: "q", Agg: Count, Left: Side{Stream: "F"}, Right: Side{Stream: "G"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartIngest(IngestConfig{Workers: 1, BatchSize: 1, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	if e.IngestSaturated() {
		t.Fatal("fresh pipeline reported saturated")
	}
	// The first update is applied; then the worker parks, its queue empty.
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(1)}); err != nil {
		t.Fatal(err)
	}
	unpark := ParkWorker(e)
	// Second update: sits in the depth-1 queue — the pipeline is full.
	if err := tn.IngestBatch("F", []stream.Update{stream.Insert(2)}); err != nil {
		t.Fatal(err)
	}
	if !e.IngestSaturated() {
		t.Fatal("full shard queue not reported as saturated")
	}
	e.NoteRejected(1)
	if got := e.IngestStats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
	unpark()
	e.Flush()
	if e.IngestSaturated() {
		t.Fatal("drained pipeline still reported saturated")
	}
	e.StopIngest()
	if got := e.IngestStats().UpdatesApplied; got != 2 {
		t.Fatalf("applied %d updates, want 2", got)
	}
}
