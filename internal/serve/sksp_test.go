package serve_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/cluster"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// blockingBackend holds every IngestGroups call until unblock closes,
// then admits it to the wrapped backend.
type blockingBackend struct {
	serve.Backend
	entered, unblock chan struct{}
	returned         atomic.Bool
}

func (b *blockingBackend) IngestGroups(ctx context.Context, tenant string, key serve.Key, groups []stream.Group, release func()) (int64, bool, error) {
	close(b.entered)
	<-b.unblock
	applied, dup, err := b.Backend.IngestGroups(ctx, tenant, key, groups, release)
	b.returned.Store(true)
	return applied, dup, err
}

// TestListenerShutdownDrainsInFlightFrame pins Shutdown's documented
// drain: with a frame's handler inside the backend's IngestGroups,
// Shutdown closes the connection but does not return until that
// handler has finished, so every frame the listener could have ACKed
// was admitted first.
func TestListenerShutdownDrainsInFlightFrame(t *testing.T) {
	n := newTestNode(t)
	b := &blockingBackend{
		Backend: cluster.NewNode(n.eng),
		entered: make(chan struct{}),
		unblock: make(chan struct{}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := serve.New(b).Listen(ln)
	go l.Serve()

	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	w := wire.NewWriter(nc)
	frame := &wire.Data{ClientID: "drain", Seq: 1, Groups: []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 3, Weight: 1}}}}}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteData(frame); err != nil || w.Flush() != nil {
		t.Fatalf("write frame: %v", err)
	}
	select {
	case <-b.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the frame never reached the backend")
	}

	// done reports whether the handler had left IngestGroups when
	// Shutdown returned.
	done := make(chan bool, 1)
	go func() {
		l.Shutdown()
		done <- b.returned.Load()
	}()
	select {
	case <-done:
		close(b.unblock)
		t.Fatal("Shutdown returned while a frame's handler was still inside IngestGroups")
	case <-time.After(100 * time.Millisecond):
	}
	close(b.unblock)
	select {
	case finished := <-done:
		if !finished {
			t.Fatal("Shutdown returned before the in-flight frame's handler finished")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the handler finished")
	}
}
