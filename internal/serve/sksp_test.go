package serve_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/cluster"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// blockingBackend holds every IngestGroups call until the test opens
// the gate of its frame's seq, then admits it to the wrapped backend.
// It counts the calls inside and the calls returned, and reports each
// call's seq on entered as it arrives.
type blockingBackend struct {
	serve.Backend
	entered          chan uint64
	inside, returned atomic.Int32

	mu    sync.Mutex
	gates map[uint64]chan struct{}
}

// newBlockingBackend wraps b. entered holds more seqs than any test
// sends frames, so reporting an entry never blocks a call.
func newBlockingBackend(b serve.Backend) *blockingBackend {
	return &blockingBackend{Backend: b, entered: make(chan uint64, 64), gates: make(map[uint64]chan struct{})}
}

func (b *blockingBackend) gate(seq uint64) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.gates[seq]
	if !ok {
		g = make(chan struct{})
		b.gates[seq] = g
	}
	return g
}

// open lets the call for seq proceed.
func (b *blockingBackend) open(seq uint64) { close(b.gate(seq)) }

func (b *blockingBackend) IngestGroups(ctx context.Context, tenant string, key serve.Key, groups []stream.Group, release func()) (int64, bool, error) {
	b.inside.Add(1)
	b.entered <- key.Seq
	<-b.gate(key.Seq)
	b.inside.Add(-1)
	applied, dup, err := b.Backend.IngestGroups(ctx, tenant, key, groups, release)
	b.returned.Add(1)
	return applied, dup, err
}

// awaitEntry returns the seq of the next call to enter IngestGroups.
func (b *blockingBackend) awaitEntry(t *testing.T) uint64 {
	t.Helper()
	select {
	case seq := <-b.entered:
		return seq
	case <-time.After(10 * time.Second):
		t.Fatal("no frame reached the backend")
		return 0
	}
}

// refuteEntry fails if a call enters IngestGroups within a short wait.
func (b *blockingBackend) refuteEntry(t *testing.T, why string) {
	t.Helper()
	select {
	case seq := <-b.entered:
		t.Fatalf("frame %d reached the backend %s", seq, why)
	case <-time.After(100 * time.Millisecond):
	}
}

// streamConn is a raw SKSP client connection to a listener that the
// test serves over b with the given in-flight cap.
type streamConn struct {
	l  *serve.Listener
	h  http.Handler
	nc net.Conn
	w  *wire.Writer
	rd *wire.Reader
}

func dialListener(t *testing.T, b serve.Backend, inFlight int) *streamConn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(b)
	l := srv.Listen(ln, inFlight)
	go l.Serve()
	t.Cleanup(l.Shutdown)
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := &streamConn{l: l, h: srv, nc: nc, w: wire.NewWriter(nc), rd: wire.NewReader(nc)}
	if err := c.w.WriteHeader(); err != nil || c.w.Flush() != nil {
		t.Fatalf("write header: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := c.rd.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	return c
}

// send writes one frame per seq, each one update to F, in one flush.
func (c *streamConn) send(t *testing.T, seqs ...uint64) {
	t.Helper()
	for _, seq := range seqs {
		frame := &wire.Data{ClientID: "pipe", Seq: seq, Groups: []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 3, Weight: 1}}}}}
		if err := c.w.WriteData(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// ack reads the next reply and returns its seq; it must be a fresh ACK.
func (c *streamConn) ack(t *testing.T) uint64 {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := c.rd.Next()
	if err != nil || ft != wire.FrameAck {
		t.Fatalf("reply: frame type %d, err %v; want an ACK", ft, err)
	}
	a, err := wire.DecodeAck(payload)
	if err != nil || a.Applied != 1 || a.Duplicate {
		t.Fatalf("ACK %+v, err %v; want 1 applied, not a duplicate", a, err)
	}
	return a.Seq
}

// streamStats returns /stats "stream".
func (c *streamConn) streamStats(t *testing.T) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		Stream map[string]any `json:"stream"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Stream == nil {
		t.Fatalf("/stats: %d %s", rec.Code, rec.Body.String())
	}
	return st.Stream
}

// TestListenerMergerCap: with the merger's cap of 8, exactly 8 frames
// of one connection are inside IngestGroups at once and a 9th waits
// until the reader's own frame, the 8th, is answered. Released in
// reverse order, each frame's reply comes back as it completes,
// carrying its own seq, and every frame handled is timed.
func TestListenerMergerCap(t *testing.T) {
	b := newBlockingBackend(cluster.NewNode(newTestNode(t).eng))
	c := dialListener(t, b, 8)
	c.send(t, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	for i := 0; i < 8; i++ {
		b.awaitEntry(t)
	}
	b.refuteEntry(t, "with 8 frames of its connection in admission")
	if got := b.inside.Load(); got != 8 {
		t.Fatalf("%d frames inside IngestGroups, want 8", got)
	}
	for _, seq := range []uint64{8, 9, 7, 6, 5, 4, 3, 2, 1} {
		if seq == 9 {
			if got := b.awaitEntry(t); got != 9 {
				t.Fatalf("frame %d entered after the 8th was answered, want the 9th", got)
			}
		}
		b.open(seq)
		if got := c.ack(t); got != seq {
			t.Fatalf("released frame %d, got the reply for %d", seq, got)
		}
	}
	c.l.Shutdown() // waits for every handler, so each frame is timed
	st := c.streamStats(t)
	if st["frames"] != float64(9) || st["frameLatency"].(map[string]any)["count"] != st["frames"] {
		t.Fatalf("stream stats %v: want 9 frames, each timed", st)
	}
}

// TestListenerNodeCap: with a node's cap of 1, frames pipelined on one
// connection reach IngestGroups one at a time, in arrival order.
func TestListenerNodeCap(t *testing.T) {
	b := newBlockingBackend(cluster.NewNode(newTestNode(t).eng))
	c := dialListener(t, b, 1)
	c.send(t, 1, 2, 3, 4, 5)
	for seq := uint64(1); seq <= 5; seq++ {
		if got := b.awaitEntry(t); got != seq {
			t.Fatalf("frame %d reached the backend, want frame %d", got, seq)
		}
		b.refuteEntry(t, "while an earlier frame of its connection was in admission")
		b.open(seq)
		if got := c.ack(t); got != seq {
			t.Fatalf("released frame %d, got the reply for %d", seq, got)
		}
	}
}

// TestListenerShutdownDrainsInFlightFrame pins Shutdown's documented
// drain: with several frames' handlers inside the backend's
// IngestGroups, Shutdown closes the connection but does not return
// until every one of them has finished, so every frame the listener
// could have ACKed was admitted first.
func TestListenerShutdownDrainsInFlightFrame(t *testing.T) {
	b := newBlockingBackend(cluster.NewNode(newTestNode(t).eng))
	c := dialListener(t, b, 8)
	c.send(t, 1, 2, 3)
	for i := 0; i < 3; i++ {
		b.awaitEntry(t)
	}

	// done reports how many handlers had left IngestGroups when
	// Shutdown returned.
	done := make(chan int32, 1)
	go func() {
		c.l.Shutdown()
		done <- b.returned.Load()
	}()
	for seq := uint64(1); seq <= 3; seq++ {
		select {
		case <-done:
			for ; seq <= 3; seq++ {
				b.open(seq)
			}
			t.Fatal("Shutdown returned while a frame's handler was still inside IngestGroups")
		case <-time.After(100 * time.Millisecond):
		}
		b.open(seq)
	}
	select {
	case finished := <-done:
		if finished != 3 {
			t.Fatalf("Shutdown returned after %d of 3 in-flight frames' handlers finished", finished)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the handlers finished")
	}
}
