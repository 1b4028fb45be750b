package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/stream"
)

func sameValueBatch(n int, value uint64) []stream.Update {
	b := make([]stream.Update, n)
	for i := range b {
		b[i] = stream.Update{Value: value, Weight: 1}
	}
	return b
}

// TestIngestGroupsQuotaAtomic is the engine-layer regression test for
// the partial-batch 429 bug: a two-group request whose SUM exceeds the
// queue-share quota — while each group alone fits — must admit NOTHING.
// The pre-fix per-group admission applied the first group and rejected
// the second, so a client retry double-counted the first group.
func TestIngestGroupsQuotaAtomic(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 2, BatchSize: 16, QueueDepth: 64})
	tn := e.Tenant("capped")
	setupTenant(t, tn)
	if err := e.SetQuota("capped", Quota{MaxPendingUpdates: 150}); err != nil {
		t.Fatal(err)
	}

	groups := []stream.Group{
		{Name: "F", Updates: sameValueBatch(100, 7)},
		{Name: "G", Updates: sameValueBatch(100, 7)},
	}
	err := tn.IngestGroups(groups, nil)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("200-update request against quota 150: want ErrQuotaExceeded, got %v", err)
	}
	e.Flush()
	st := tn.Stats()
	if st.UpdateCounts["F"] != 0 || st.UpdateCounts["G"] != 0 {
		t.Fatalf("rejected request partially applied: F=%d G=%d, want 0/0",
			st.UpdateCounts["F"], st.UpdateCounts["G"])
	}
	if st.Rejected != 200 {
		t.Fatalf("rejected counter %d, want 200 (the whole request)", st.Rejected)
	}
	if st.PendingUpdates != 0 {
		t.Fatalf("pending gauge %d after rejection, want 0", st.PendingUpdates)
	}

	// The retry contract: after the rejection the client resends the WHOLE
	// request; with room it lands exactly once.
	if err := e.SetQuota("capped", Quota{MaxPendingUpdates: 500}); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestGroups(groups, nil); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	st = tn.Stats()
	if st.UpdateCounts["F"] != 100 || st.UpdateCounts["G"] != 100 {
		t.Fatalf("retried request counts F=%d G=%d, want 100/100",
			st.UpdateCounts["F"], st.UpdateCounts["G"])
	}
	// COUNT(F ⋈ G) with all mass on one value is exactly 100·100.
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 100*100 {
		t.Fatalf("estimate %d, want exactly %d", ans.Estimate, 100*100)
	}
}

// TestIngestGroupsValidationAtomic: a request whose LATER group fails
// validation (unknown stream, out-of-domain value) applies nothing.
func TestIngestGroupsValidationAtomic(t *testing.T) {
	e := mustEngine(t)
	tn := e.Tenant("v")
	setupTenant(t, tn)
	err := tn.IngestGroups([]stream.Group{
		{Name: "F", Updates: sameValueBatch(10, 1)},
		{Name: "missing", Updates: sameValueBatch(1, 1)},
	}, nil)
	if err == nil {
		t.Fatal("unknown stream in second group not rejected")
	}
	err = tn.IngestGroups([]stream.Group{
		{Name: "F", Updates: sameValueBatch(10, 1)},
		{Name: "G", Updates: []stream.Update{{Value: 99999, Weight: 1}}},
	}, nil)
	if err == nil {
		t.Fatal("out-of-domain value in second group not rejected")
	}
	st := tn.Stats()
	if st.UpdateCounts["F"] != 0 || st.UpdateCounts["G"] != 0 {
		t.Fatalf("invalid request partially applied: %+v", st.UpdateCounts)
	}
}

// TestIngestGroupsRelease pins the buffer-ownership contract: release
// fires exactly once, only after every update is folded into every
// synopsis — at which point the caller may overwrite the buffers
// without corrupting what was ingested.
func TestIngestGroupsRelease(t *testing.T) {
	e := startEngine(t, defaultOpts(), IngestConfig{Workers: 2, BatchSize: 8, QueueDepth: 16})
	tn := e.Tenant("r")
	setupTenant(t, tn)

	buf := sameValueBatch(64, 7)
	groups := []stream.Group{
		{Name: "F", Updates: buf[:32]},
		{Name: "G", Updates: buf[32:]},
	}
	var calls atomic.Int32
	released := make(chan struct{})
	if err := tn.IngestGroups(groups, func() {
		if calls.Add(1) == 1 {
			close(released)
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release callback never fired")
	}
	// The engine promised it holds no reference: trashing the buffer must
	// not affect what was ingested.
	for i := range buf {
		buf[i] = stream.Update{Value: 999, Weight: -5}
	}
	e.Flush()
	if got := calls.Load(); got != 1 {
		t.Fatalf("release called %d times, want exactly 1", got)
	}
	ans, err := tn.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 32*32 {
		t.Fatalf("estimate %d, want exactly %d (buffer reuse corrupted ingest?)", ans.Estimate, 32*32)
	}

	// Error path: the engine retains nothing and must NOT call release.
	var badCalls atomic.Int32
	err = tn.IngestGroups([]stream.Group{{Name: "missing", Updates: sameValueBatch(1, 0)}},
		func() { badCalls.Add(1) })
	if err == nil || badCalls.Load() != 0 {
		t.Fatalf("failed request: err=%v releaseCalls=%d, want error and 0 calls", err, badCalls.Load())
	}

	// Empty request: released immediately.
	var emptyCalls atomic.Int32
	if err := tn.IngestGroups(nil, func() { emptyCalls.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if emptyCalls.Load() != 1 {
		t.Fatalf("empty request release calls %d, want 1", emptyCalls.Load())
	}
}

// TestIngestGroupsReleaseSyncAndUnlistened covers the two paths that
// never enqueue: a request refused because no pipeline runs yet, which
// keeps no reference and never calls release, and a stream no synopsis
// listens to.
func TestIngestGroupsReleaseSyncAndUnlistened(t *testing.T) {
	e := idleEngine(t, defaultOpts())
	tn := e.Tenant("s")
	setupTenant(t, tn)
	var calls atomic.Int32
	err := tn.IngestGroups([]stream.Group{
		{Name: "F", Updates: sameValueBatch(5, 1)},
	}, func() { calls.Add(1) })
	if !errors.Is(err, ErrNotIngesting) || calls.Load() != 0 {
		t.Fatalf("request before StartIngest: err=%v releaseCalls=%d, want ErrNotIngesting and 0 calls", err, calls.Load())
	}

	// A declared stream with no listening synopsis.
	if err := tn.DeclareStream("idle", 1024); err != nil {
		t.Fatal(err)
	}
	if err := e.StartIngest(IngestConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	if err := tn.IngestGroups([]stream.Group{
		{Name: "idle", Updates: sameValueBatch(9, 3)},
	}, func() { close(released) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release never fired for unlistened stream")
	}
	e.Flush()
	if got := tn.Stats().UpdateCounts["idle"]; got != 9 {
		t.Fatalf("unlistened stream count %d, want 9", got)
	}
}

// TestIngestGroupsMatchesSequentialUpdates: for every pipeline shape,
// one multi-group request leaves the tenant's synopses byte-equal to a
// model that folds the same updates one at a time, in order, into fresh
// sketches.
func TestIngestGroupsMatchesSequentialUpdates(t *testing.T) {
	var fups, gups []stream.Update
	for i := 0; i < 200; i++ {
		fups = append(fups, stream.Update{Value: uint64(i * 13 % 1024), Weight: int64(i%5) - 1})
		gups = append(gups, stream.Update{Value: uint64(i * 7 % 1024), Weight: 1})
	}
	left, right := modelBlob(t, Side{}, nil, fups), modelBlob(t, Side{}, nil, gups)
	for workers := 1; workers <= 4; workers++ {
		for _, bs := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, bs), func(t *testing.T) {
				e := startEngine(t, defaultOpts(), IngestConfig{Workers: workers, BatchSize: bs})
				tn := e.Tenant("eq")
				setupTenant(t, tn)
				if err := tn.IngestGroups([]stream.Group{
					{Name: "F", Updates: fups},
					{Name: "G", Updates: gups},
				}, nil); err != nil {
					t.Fatal(err)
				}
				checkModel(t, tn, "q", left, right)
			})
		}
	}
}
