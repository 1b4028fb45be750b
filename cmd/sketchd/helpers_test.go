package main

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/wire"
)

// server is the stack run() builds for the single and shard roles — the
// HTTP surface over a node backend — for tests that drive a handler
// directly or reach the node's checkpoint payload.
type server struct {
	*serve.Server
	node *cluster.Node
}

// newEngine returns an engine over cfg whose ingest pipeline, tuned by
// ic, runs until the test ends — the shape startNode builds.
func newEngine(t *testing.T, cfg core.Config, ic engine.IngestConfig) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Options{SketchConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartIngest(ic); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.StopIngest)
	return eng
}

func newServer(eng *engine.Engine) *server {
	node := cluster.NewNode(eng)
	return &server{Server: serve.New(node), node: node}
}

// predicateDef is a range predicate's persistent definition (an empty
// Tenant is the default tenant).
type predicateDef = serve.PredicateReq

func (s *server) registerRangePredicate(def predicateDef) error {
	tenant := def.Tenant
	if tenant == "" {
		tenant = engine.DefaultTenant
	}
	return s.node.RegisterPredicate(context.Background(), tenant, def)
}

func (s *server) writeCheckpoint(w io.Writer) error { return s.node.WriteCheckpoint(w) }
func (s *server) readCheckpoint(r io.Reader) error  { return s.node.ReadCheckpoint(r) }

// rangePredicate is the engine predicate a registered [min, max]
// definition stands for.
func rangePredicate(min, max uint64) engine.Predicate {
	return func(v uint64, _ int64) bool { return v >= min && v <= max }
}

// sketchdCheckpoint is the checkpoint payload's JSON layout, as tests
// inspect it.
type sketchdCheckpoint struct {
	Version    int            `json:"version"`
	Predicates []predicateDef `json:"predicates"`
}

const sketchdCheckpointVersion = 2

// streamServer is an SKSP listener over a fresh node of eng, exposing
// the counters the stream tests reconcile against.
type streamServer struct {
	*serve.Listener
	frames, rejected, errored *atomic.Int64
}

// newStreamServer serves SKSP on ln. The node brings its own dedupe
// window, as fresh as the one the callers pass.
func newStreamServer(eng *engine.Engine, _ *wire.Window, ln net.Listener) *streamServer {
	l := newServer(eng).Listen(ln)
	return &streamServer{Listener: l, frames: &l.Frames, rejected: &l.Rejected, errored: &l.Errors}
}

func (sv *streamServer) serve() error { return sv.Serve() }
func (sv *streamServer) shutdown()    { sv.Shutdown() }

func (sv *streamServer) statsJSON() map[string]int64 {
	return map[string]int64{"frames": sv.Frames.Load(), "rejected": sv.Rejected.Load(), "errors": sv.Errors.Load()}
}
