package main

import (
	"io"
	"net"
	"strings"
	"testing"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
)

// TestProbe drives probe against an in-process SKSP listener over a
// cluster node: the first send is ACKed, the -replay comes back as a
// duplicate with the same applied count, the engine applies the frame
// once, and a frame into an undeclared stream fails with the server's
// ERROR message.
func TestProbe(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 5, Buckets: 64, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer eng.StopIngest()
	tn := eng.Tenant(engine.DefaultTenant)
	for _, name := range []string{"F", "G"} {
		if err := tn.DeclareStream(name, 1024); err != nil {
			t.Fatal(err)
		}
	}
	q := engine.QuerySpec{Name: "q", Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}
	if err := tn.RegisterQuery(q); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := serve.New(cluster.NewNode(eng)).Listen(ln, 1)
	go l.Serve()
	defer l.Shutdown()
	addr := ln.Addr().String()

	out := capture(t, runProbe, "-addr", addr, "-client", "probe-test", "-seq", "3", "-replay")
	if !strings.Contains(out, "seq 3 ACKed, applied=2 duplicate=false") ||
		!strings.Contains(out, "replay of seq 3 answered as duplicate") {
		t.Fatalf("probe printed:\n%s", out)
	}
	st := eng.Stats()
	if st.UpdateCounts["F"] != 1 || st.UpdateCounts["G"] != 1 || st.Ingest.UpdatesApplied != 2 {
		t.Fatalf("the frame was not applied exactly once: counts %v, applied %d", st.UpdateCounts, st.Ingest.UpdatesApplied)
	}

	err = runProbe(io.Discard, []string{"-addr", addr, "-client", "probe-test", "-seq", "4", "-streams", "H"})
	if err == nil || !strings.Contains(err.Error(), "permanent error") || !strings.Contains(err.Error(), `"H"`) {
		t.Fatalf("probe into an undeclared stream: err = %v", err)
	}
}
