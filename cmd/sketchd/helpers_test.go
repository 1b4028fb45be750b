package main

import (
	"net"
	"testing"

	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
)

// server is the stack run() builds for the single and shard roles — the
// HTTP surface over a node backend — for tests that drive a handler
// directly or reach the node's checkpoint reader.
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

// newListener is an SKSP listener on ln over a fresh node of eng, the
// node bringing its own dedupe window.
func newListener(eng *engine.Engine, ln net.Listener) *serve.Listener {
	return newServer(eng).Listen(ln, 1)
}
