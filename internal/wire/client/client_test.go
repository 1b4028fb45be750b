package client

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/distributed"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// fastBackoff keeps the retry/reconnect machinery honest without
// slowing the test suite: deterministic (Jitter 0) millisecond delays.
func fastBackoff() distributed.Backoff {
	return distributed.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Jitter: 0}
}

// fakeServer is a scripted SKSP endpoint: it performs the header
// exchange, then hands every DATA frame to handle along with the
// 0-based connection number. handle returning false drops the
// connection mid-conversation (simulating a crash or network cut).
type fakeServer struct {
	t  *testing.T
	ln net.Listener
	wg sync.WaitGroup

	handle func(connNo int, d *wire.Data, w *wire.Writer) bool

	mu    sync.Mutex
	conns int
}

func newFakeServer(t *testing.T, handle func(connNo int, d *wire.Data, w *wire.Writer) bool) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeServer{t: t, ln: ln, handle: handle}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *fakeServer) addr() string { return s.ln.Addr().String() }

func (s *fakeServer) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

func (s *fakeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		connNo := s.conns
		s.conns++
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer nc.Close()
			s.serveConn(connNo, nc)
		}()
	}
}

func (s *fakeServer) serveConn(connNo int, nc net.Conn) {
	rd := wire.NewReader(nc)
	w := wire.NewWriter(nc)
	if err := rd.ReadHeader(); err != nil {
		return
	}
	if err := w.WriteHeader(); err != nil || w.Flush() != nil {
		return
	}
	var d wire.Data
	for {
		ft, payload, err := rd.Next()
		if err != nil {
			return // client closed or dropped
		}
		if ft != wire.FrameData {
			s.t.Errorf("server got frame type %d, want DATA", ft)
			return
		}
		if err := wire.DecodeData(payload, &d); err != nil {
			s.t.Errorf("server decode: %v", err)
			return
		}
		if !s.handle(connNo, &d, w) {
			return
		}
	}
}

// ackAll answers every frame with an ACK of the element count.
func ackAll(_ int, d *wire.Data, w *wire.Writer) bool {
	var n int64
	for _, g := range d.Groups {
		n += int64(len(g.Updates))
	}
	if w.WriteAck(wire.Ack{Seq: d.Seq, Applied: n}) != nil || w.Flush() != nil {
		return false
	}
	return true
}

func twoGroups() []stream.Group {
	return []stream.Group{
		{Name: "F", Updates: []stream.Update{{Value: 1, Weight: 1}, {Value: 2, Weight: -1}}},
		{Name: "G", Updates: []stream.Update{{Value: 3, Weight: 5}}},
	}
}

func TestSendAck(t *testing.T) {
	srv := newFakeServer(t, ackAll)
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	out, err := c.Send(context.Background(), "acme", twoGroups())
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 3 || out.Attempts != 1 || out.Rejected429 != 0 || out.Deduplicated {
		t.Fatalf("outcome %+v", out)
	}
}

func TestPingAndGeneratedClientID(t *testing.T) {
	srv := newFakeServer(t, ackAll)
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()
	// An empty send dials and exchanges headers without sending data.
	if _, err := c.Send(context.Background(), "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.ClientID(), "sksp-") || len(c.ClientID()) != len("sksp-")+16 {
		t.Fatalf("generated clientID %q", c.ClientID())
	}
}

// TestRejectThenAck: the protocol 429. The server rejects the first
// sighting of each seq; the client must back off and resend the SAME
// seq, not a new one.
func TestRejectThenAck(t *testing.T) {
	var mu sync.Mutex
	sightings := make(map[uint64]int)
	srv := newFakeServer(t, func(connNo int, d *wire.Data, w *wire.Writer) bool {
		mu.Lock()
		sightings[d.Seq]++
		n := sightings[d.Seq]
		mu.Unlock()
		if n == 1 {
			return w.WriteReject(wire.Reject{Seq: d.Seq}) == nil && w.Flush() == nil
		}
		return ackAll(connNo, d, w)
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	out, err := c.Send(context.Background(), "", twoGroups())
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 3 || out.Attempts != 2 || out.Rejected429 != 1 {
		t.Fatalf("outcome %+v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sightings) != 1 {
		t.Fatalf("server saw %d distinct seqs, want 1 (resend must reuse the seq)", len(sightings))
	}
}

// TestRejectRetryAfterFloor: a Retry-After hint above the backoff delay
// floors the sleep — the client must not hammer a server that asked for
// a pause.
func TestRejectRetryAfterFloor(t *testing.T) {
	first := true
	srv := newFakeServer(t, func(connNo int, d *wire.Data, w *wire.Writer) bool {
		if first {
			first = false
			return w.WriteReject(wire.Reject{Seq: d.Seq, RetryAfter: 1}) == nil && w.Flush() == nil
		}
		return ackAll(connNo, d, w)
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	t0 := time.Now()
	if _, err := c.Send(context.Background(), "", twoGroups()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < time.Second {
		t.Fatalf("resend after %v, want >= the 1s Retry-After hint", d)
	}
}

func TestRejectBudgetSpent(t *testing.T) {
	srv := newFakeServer(t, func(_ int, d *wire.Data, w *wire.Writer) bool {
		return w.WriteReject(wire.Reject{Seq: d.Seq}) == nil && w.Flush() == nil
	})
	b := fastBackoff()
	b.Attempts = 3
	c := New(srv.addr(), Options{Backoff: b})
	defer c.Close()

	out, err := c.Send(context.Background(), "", twoGroups())
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err %v, want retry budget spent", err)
	}
	if out.Attempts != 3 || out.Rejected429 != 3 {
		t.Fatalf("outcome %+v, want 3 attempts all rejected", out)
	}
}

func TestErrorFrameIsPermanent(t *testing.T) {
	var frames atomic.Int64
	srv := newFakeServer(t, func(_ int, d *wire.Data, w *wire.Writer) bool {
		frames.Add(1)
		return w.WriteError(wire.ErrorFrame{Seq: d.Seq, Msg: `unknown stream "nope"`}) == nil && w.Flush() == nil
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	_, err := c.Send(context.Background(), "", []stream.Group{{Name: "nope", Updates: []stream.Update{{Value: 1, Weight: 1}}}})
	if err == nil || !strings.Contains(err.Error(), "unknown stream") {
		t.Fatalf("err %v, want the server's message", err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := frames.Load(); n != 1 {
		t.Fatalf("server saw %d frames, want 1 (no retry on permanent error)", n)
	}
}

// TestReconnectReplayExactlyOnce is the tentpole property: the server
// applies a frame and then drops the connection before the ACK escapes.
// The client must reconnect and replay the same seq; the server's
// dedupe window answers it without re-applying, so the batch lands
// exactly once even though it was transmitted twice.
func TestReconnectReplayExactlyOnce(t *testing.T) {
	win := wire.NewWindow(0, 0)
	var applied atomic.Int64
	var dropped atomic.Bool
	srv := newFakeServer(t, func(connNo int, d *wire.Data, w *wire.Writer) bool {
		var n int64
		for _, g := range d.Groups {
			n += int64(len(g.Updates))
		}
		if out, ok := win.Lookup(d.ClientID, d.Seq); ok {
			// Replay of an applied frame: answer from memory, apply nothing.
			return w.WriteAck(wire.Ack{Seq: d.Seq, Applied: out.Applied, Duplicate: true}) == nil && w.Flush() == nil
		}
		applied.Add(n)
		win.Record(d.ClientID, d.Seq, wire.Outcome{Applied: n})
		if !dropped.Swap(true) {
			return false // applied, but the connection dies before the ACK
		}
		return w.WriteAck(wire.Ack{Seq: d.Seq, Applied: n}) == nil && w.Flush() == nil
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	out, err := c.Send(context.Background(), "", twoGroups())
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 3 || !out.Deduplicated {
		t.Fatalf("outcome %+v, want 3 applied via the dedupe window", out)
	}
	if n := applied.Load(); n != 3 {
		t.Fatalf("server applied %d elements, want exactly 3 (no double-apply)", n)
	}
	if srv.connCount() < 2 {
		t.Fatalf("%d connections, want a reconnect", srv.connCount())
	}

	// The connection is live again: a follow-up batch goes straight through.
	out, err = c.Send(context.Background(), "", twoGroups())
	if err != nil || out.Applied != 3 || out.Deduplicated {
		t.Fatalf("post-reconnect send: %+v %v", out, err)
	}
}

// TestReconnectReplaysAllPending: several concurrent Sends are in
// flight when the connection dies; every one must complete after the
// reconnect, and the server must see each seq apply exactly once.
func TestReconnectReplaysAllPending(t *testing.T) {
	const sends = 8
	win := wire.NewWindow(0, 0)
	var mu sync.Mutex
	appliedSeqs := make(map[uint64]int)
	var received atomic.Int64
	srv := newFakeServer(t, func(connNo int, d *wire.Data, w *wire.Writer) bool {
		if out, ok := win.Lookup(d.ClientID, d.Seq); ok {
			return w.WriteAck(wire.Ack{Seq: d.Seq, Applied: out.Applied, Duplicate: true}) == nil && w.Flush() == nil
		}
		var n int64
		for _, g := range d.Groups {
			n += int64(len(g.Updates))
		}
		mu.Lock()
		appliedSeqs[d.Seq]++
		mu.Unlock()
		win.Record(d.ClientID, d.Seq, wire.Outcome{Applied: n})
		// The first connection absorbs frames silently and dies once it has
		// a few in hand; later connections ACK normally.
		if connNo == 0 {
			return received.Add(1) < 3
		}
		return w.WriteAck(wire.Ack{Seq: d.Seq, Applied: n}) == nil && w.Flush() == nil
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, sends)
	outs := make([]Outcome, sends)
	for i := 0; i < sends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Send(context.Background(), "", []stream.Group{
				{Name: "F", Updates: []stream.Update{{Value: uint64(i), Weight: 1}}},
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < sends; i++ {
		if errs[i] != nil {
			t.Fatalf("send %d: %v", i, errs[i])
		}
		if outs[i].Applied != 1 {
			t.Fatalf("send %d outcome %+v", i, outs[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(appliedSeqs) != sends {
		t.Fatalf("server applied %d distinct seqs, want %d", len(appliedSeqs), sends)
	}
	for seq, n := range appliedSeqs {
		if n != 1 {
			t.Fatalf("seq %d applied %d times", seq, n)
		}
	}
}

func TestDialFailureSpendsBudget(t *testing.T) {
	// A listener that is closed immediately: dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	b := fastBackoff()
	b.Attempts = 2
	c := New(addr, Options{Backoff: b, DialTimeout: 100 * time.Millisecond})
	defer c.Close()
	_, err = c.Send(context.Background(), "", twoGroups())
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("err %v, want reconnect budget spent", err)
	}
}

func TestCloseFailsPendingSend(t *testing.T) {
	srv := newFakeServer(t, func(int, *wire.Data, *wire.Writer) bool {
		return true // swallow frames, never answer
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})

	done := make(chan error, 1)
	go func() {
		_, err := c.Send(context.Background(), "", twoGroups())
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the frame reach the server
	c.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("err %v, want connection closed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send did not return after Close")
	}
	if _, err := c.Send(context.Background(), "", twoGroups()); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

func TestSendContextCanceled(t *testing.T) {
	srv := newFakeServer(t, func(int, *wire.Data, *wire.Writer) bool {
		return true // never answer
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Send(ctx, "", twoGroups()); err != context.DeadlineExceeded {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}

func TestBatcher(t *testing.T) {
	var got wire.Data
	var mu sync.Mutex
	srv := newFakeServer(t, func(connNo int, d *wire.Data, w *wire.Writer) bool {
		mu.Lock()
		got = wire.Data{ClientID: d.ClientID, Seq: d.Seq, Tenant: d.Tenant}
		for _, g := range d.Groups {
			got.Groups = append(got.Groups, stream.Group{
				Name:    g.Name,
				Updates: append([]stream.Update(nil), g.Updates...),
			})
		}
		mu.Unlock()
		return ackAll(connNo, d, w)
	})
	c := New(srv.addr(), Options{Backoff: fastBackoff()})
	defer c.Close()

	b := &Batcher{C: c, Tenant: "acme"}
	if out, err := b.Flush(context.Background()); err != nil || out.Applied != 0 {
		t.Fatalf("empty flush: %+v %v", out, err)
	}
	b.Add("F", 1, 1)
	b.Add("G", 2, -3)
	if n := b.Add("F", 3, 1); n != 3 {
		t.Fatalf("Add count %d, want 3", n)
	}
	if b.count != 3 {
		t.Fatalf("buffered %d", b.count)
	}
	out, err := b.Flush(context.Background())
	if err != nil || out.Applied != 3 {
		t.Fatalf("flush: %+v %v", out, err)
	}
	if b.count != 0 {
		t.Fatalf("buffered %d after flush", b.count)
	}
	mu.Lock()
	seen := got
	mu.Unlock()
	if seen.Tenant != "acme" || len(seen.Groups) != 2 {
		t.Fatalf("server saw %+v", seen)
	}
	if seen.Groups[0].Name != "F" || len(seen.Groups[0].Updates) != 2 ||
		seen.Groups[1].Name != "G" || len(seen.Groups[1].Updates) != 1 {
		t.Fatalf("grouping wrong: %+v", seen.Groups)
	}
	if seen.Groups[0].Updates[1] != (stream.Update{Value: 3, Weight: 1}) {
		t.Fatalf("per-stream order lost: %+v", seen.Groups[0].Updates)
	}

	// The batcher reuses its buffers across flushes.
	b.Add("F", 9, 2)
	if out, err := b.Flush(context.Background()); err != nil || out.Applied != 1 {
		t.Fatalf("reuse flush: %+v %v", out, err)
	}
}

// TestCloseUnblocksReadLoop pins the liveness contract behind
// reconnectLoop's ctxleak suppression: readLoop selects on no done
// channel — it exits because Close (or a connFailed teardown) closes
// the net.Conn, which errors the rd.Next it blocks in. If this test
// hangs, that suppression is a lie.
func TestCloseUnblocksReadLoop(t *testing.T) {
	srv := newFakeServer(t, ackAll)
	c := New(srv.addr(), Options{Backoff: fastBackoff()})

	nc, rd, _, err := c.dial()
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.nc = nc
	gen := c.gen
	c.mu.Unlock()

	exited := make(chan struct{})
	go func() {
		defer close(exited)
		c.readLoop(rd, gen)
	}()
	select {
	case <-exited:
		t.Fatal("readLoop exited before Close")
	case <-time.After(20 * time.Millisecond):
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		t.Fatal("readLoop still blocked after Close")
	}
}
