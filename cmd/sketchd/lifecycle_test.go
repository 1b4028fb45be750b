package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
)

// syncBuffer lets the test read run's log output while run writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`listening on ([^ ]+) `)

// startRun boots run() on an ephemeral port and waits for the listener,
// returning the base URL and a channel with run's eventual result.
func startRun(t *testing.T, ctx context.Context, opts options, out *syncBuffer) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts, out) }()
	deadline := time.After(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], done
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v\n%s", err, out.String())
		case <-deadline:
			t.Fatalf("server never started listening:\n%s", out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func httpJSON(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRunGracefulShutdownAndRecovery is the acceptance path in-process:
// boot with a checkpoint directory, ingest through the concurrent
// pipeline, shut down gracefully (the context stands in for SIGTERM,
// which feeds the same signal.NotifyContext cancellation), restart from
// the checkpoint, and require the recovered answer byte-identical.
func TestRunGracefulShutdownAndRecovery(t *testing.T) {
	dir := t.TempDir()
	opts, err := parseFlags([]string{
		"-addr", "127.0.0.1:0",
		"-tables", "5", "-buckets", "256",
		"-ingest.workers", "2",
		"-checkpoint.dir", dir,
		"-checkpoint.interval", "50ms",
		"-shutdown.timeout", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	base, done := startRun(t, ctx, opts, out)

	for _, req := range []struct{ method, path, body string }{
		{"POST", "/streams", `{"name":"F","domain":1024}`},
		{"POST", "/streams", `{"name":"G","domain":1024}`},
		{"POST", "/predicates", `{"name":"low","min":0,"max":511}`},
		{"POST", "/queries", `{"name":"q","agg":"COUNT","left":{"stream":"F","predicate":"low"},"right":{"stream":"G"}}`},
	} {
		if code, body := httpJSON(t, req.method, base+req.path, req.body); code != 201 {
			t.Fatalf("%s %s: %d %s", req.method, req.path, code, body)
		}
	}
	var batch []string
	for i := 0; i < 500; i++ {
		batch = append(batch,
			fmt.Sprintf(`{"stream":"F","value":%d}`, i%700),
			fmt.Sprintf(`{"stream":"G","value":%d}`, (i*7)%1024))
	}
	if code, body := httpJSON(t, "POST", base+"/update", "["+strings.Join(batch, ",")+"]"); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	code, ans1 := httpJSON(t, "GET", base+"/answer?query=q", "")
	if code != 200 {
		t.Fatalf("answer: %d %s", code, ans1)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned error: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not shut down:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "final checkpoint written") {
		t.Fatalf("no final checkpoint in log:\n%s", out.String())
	}
	if _, err := os.Stat(dir + "/" + checkpoint.CurrentName); err != nil {
		t.Fatal(err)
	}

	// Restart from the checkpoint.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	out2 := &syncBuffer{}
	base2, done2 := startRun(t, ctx2, opts, out2)
	if !strings.Contains(out2.String(), "restored checkpoint") {
		t.Fatalf("restart did not restore the checkpoint:\n%s", out2.String())
	}
	code, ans2 := httpJSON(t, "GET", base2+"/answer?query=q", "")
	if code != 200 {
		t.Fatalf("recovered answer: %d %s", code, ans2)
	}
	if ans1 != ans2 {
		t.Fatalf("recovered answer differs:\n before %s\n after  %s", ans1, ans2)
	}
	// The restored predicate still filters: updates keep flowing and the
	// estimate moves, i.e. the checkpoint carried live, usable state.
	if code, body := httpJSON(t, "POST", base2+"/update", `{"stream":"F","value":3}`); code != 200 {
		t.Fatalf("post-restore update: %d %s", code, body)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRunWithoutCheckpointDir: persistence is opt-in; the lifecycle
// still shuts down cleanly with no checkpoint configured. With no
// -ingest.* flag the node still runs its ingest pipeline.
func TestRunWithoutCheckpointDir(t *testing.T) {
	opts, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-tables", "3", "-buckets", "64"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	base, done := startRun(t, ctx, opts, out)
	if !strings.Contains(out.String(), "sketchd ingest pipeline:") {
		t.Fatalf("no pipeline banner:\n%s", out.String())
	}
	if code, body := httpJSON(t, "POST", base+"/streams", `{"name":"F","domain":64}`); code != 201 {
		t.Fatalf("streams: %d %s", code, body)
	}
	if code, body := httpJSON(t, "POST", base+"/update", `{"stream":"F","value":3}`); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	if code, _ := httpJSON(t, "GET", base+"/stats", ""); code != 200 {
		t.Fatal("stats failed")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not shut down")
	}
}

// TestIngestTuningFlagsRemoved: the pipeline's batch size and queue
// depth are fixed, only its worker count is a flag, and a merger has no
// answer cache to tune. Each value parses as its old flag's type, so
// only an undefined flag fails.
func TestIngestTuningFlagsRemoved(t *testing.T) {
	for _, f := range [][2]string{{"-ingest.batch", "8"}, {"-ingest.queue", "8"}, {"-cluster.epoch", "1s"}} {
		if _, err := parseFlags(f[:]); err == nil {
			t.Fatalf("%s accepted", f[0])
		}
	}
}

// TestRunListenError: a dead listener is an error return, not a hang.
func TestRunListenError(t *testing.T) {
	opts, err := parseFlags([]string{"-addr", "256.0.0.1:99999"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), opts, io.Discard); err == nil {
		t.Fatal("expected listen error")
	}
}

// TestServerCheckpointRoundTrip: the checkpoint payload is the engine
// snapshot, which carries the range predicate registered over the wire,
// so a fresh server reads it with nothing registered and answers
// identically.
func TestServerCheckpointRoundTrip(t *testing.T) {
	mk := func() (*server, *engine.Engine) {
		eng := newEngine(t, core.Config{Tables: 5, Buckets: 128, Seed: 9}, engine.IngestConfig{Workers: 2})
		return newServer(eng), eng
	}
	srcSrv, srcEng := mk()
	src := srcEng.Tenant(engine.DefaultTenant)
	if err := srcSrv.node.RegisterPredicate(context.Background(), engine.DefaultTenant, serve.PredicateReq{Name: "low", Predicate: engine.Predicate{Max: 31}}); err != nil {
		t.Fatal(err)
	}
	if err := src.DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	if err := src.DeclareStream("G", 64); err != nil {
		t.Fatal(err)
	}
	err := src.RegisterQuery(engine.QuerySpec{
		Name: "q", Agg: engine.Count,
		Left:  engine.Side{Stream: "F", Predicate: "low"},
		Right: engine.Side{Stream: "G"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := src.IngestBatch("F", []stream.Update{stream.Insert(uint64(i % 64))}); err != nil {
			t.Fatal(err)
		}
		if err := src.IngestBatch("G", []stream.Update{stream.Insert(uint64((i * 3) % 64))}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := srcEng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dstSrv, dstEng := mk()
	if err := dstSrv.node.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := src.Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dstEng.Tenant(engine.DefaultTenant).Answer("q")
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("restored answer %+v differs from source %+v", got, want)
	}
}

func TestReadCheckpointRejectsBadPayload(t *testing.T) {
	s := newServer(newEngine(t, core.Config{Tables: 3, Buckets: 64, Seed: 1}, engine.IngestConfig{Workers: 1}))
	if err := s.node.ReadCheckpoint(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if err := s.node.ReadCheckpoint(strings.NewReader(`{"version":99,"engine":{}}`)); err == nil {
		t.Fatal("expected version error")
	}
}
