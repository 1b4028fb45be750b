package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/engine"
	"skimsketch/internal/wire"
)

// Listener is the SKSP binary ingest front end (docs/FORMATS.md): a
// persistent-connection TCP listener that decodes DATA frames into
// pooled buffers and hands them to the backend's IngestGroups. JSON over
// HTTP pays per update for request parsing, JSON decoding and
// per-request allocation; SKSP amortizes all of it across a connection
// and recycles every decode buffer through a sync.Pool, so steady-state
// ingest into a node allocates nothing per frame.
//
// Each connection has one reader, inFlight-1 long-lived helpers and one
// reply writer. The reader decodes frames in arrival order and hands
// each to an idle helper, or admits it itself when none is idle. With
// no helper (a node) frames are admitted and answered in arrival order.
// With more (a merger, whose admission waits on shard round trips) up
// to inFlight frames of a connection are in admission at once, and
// replies go out in completion order, each carrying its frame's seq.
//
// Reliability contract (the frame-level mirror of /update's):
//
//   - ACK means the frame was admitted — exactly what HTTP 200 means.
//     The element count rides back for client-side reconciliation.
//   - REJECT means NOTHING was applied (saturation, a tenant quota, or
//     on a merger a saturated or unreachable shard): resend the same seq
//     after the Retry-After hint.
//   - ERROR is permanent (malformed frame, unknown stream, value out of
//     domain): resending the same frame can never succeed.
//   - A (clientID, seq) already admitted is answered with a duplicate
//     ACK and applies nothing, which makes reconnect-with-replay
//     exactly-once. The memory of admitted seqs is the backend's and is
//     bounded: replays must be prompt.
type Listener struct {
	b  Backend
	ln net.Listener
	// inFlight caps the decoded frames of one connection not yet
	// answered: its helpers and its reader.
	inFlight int

	// pool recycles decode buffers: each *wire.Data keeps its update
	// slab and name intern table across frames. The backend's release
	// callback returns a Data once nothing reads its groups any more.
	pool sync.Pool

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup

	// Counters behind /stats "stream", the binary protocol's mirror of
	// the HTTP ingest figures: Updates counts admitted elements,
	// Duplicates replayed frames, Rejected REJECT frames and Errors
	// ERROR frames plus dropped malformed frames.
	ConnsTotal, ConnsOpen, Frames, Updates, Duplicates, Rejected, Errors atomic.Int64
	// frameLat times every handled frame, whatever its response, so its
	// count equals Frames.
	frameLat latency
}

// Listen attaches an SKSP listener on ln to the server, whose /stats
// then reports its counters. inFlight, at least 1, caps how many frames
// of one connection are in admission at once. Call it before serving
// HTTP; call Serve to accept and Shutdown to drain.
func (s *Server) Listen(ln net.Listener, inFlight int) *Listener {
	l := &Listener{b: s.b, ln: ln, inFlight: inFlight, conns: make(map[net.Conn]struct{})}
	l.pool.New = func() any { return &wire.Data{} }
	s.sksp = l
	return l
}

// Serve accepts connections until the listener closes. The returned
// error is nil on a requested shutdown.
func (l *Listener) Serve() error {
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		l.mu.Lock()
		if l.closing {
			l.mu.Unlock()
			nc.Close()
			continue
		}
		l.conns[nc] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		l.ConnsTotal.Add(1)
		l.ConnsOpen.Add(1)
		go func() {
			defer l.wg.Done()
			defer l.ConnsOpen.Add(-1)
			l.serveConn(nc)
			l.mu.Lock()
			delete(l.conns, nc)
			l.mu.Unlock()
			nc.Close()
		}()
	}
}

// Shutdown drains the listener: stop accepting, close every connection,
// wait for the handlers to finish every in-flight frame. Once it
// returns, every ACKed frame has been admitted to the backend; clients
// mid-frame never got an ACK and replay on reconnect.
func (l *Listener) Shutdown() {
	l.ln.Close()
	l.mu.Lock()
	l.closing = true
	for nc := range l.conns {
		nc.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
}

// frame is one decoded DATA frame on its way to admission.
type frame struct {
	d     *wire.Data
	start time.Time
}

// serveConn runs one SKSP session: header exchange, then a frame loop.
// Any protocol violation ends the session — the framing's CRC and
// length checks mean a violation is a broken peer, not a recoverable
// hiccup. It returns once every frame it decoded has been answered.
func (l *Listener) serveConn(nc net.Conn) {
	const headerTimeout = 5 * time.Second // slow-header guard, like http.Server's
	rd := wire.NewReader(nc)
	w := wire.NewWriter(nc)
	nc.SetReadDeadline(time.Now().Add(headerTimeout))
	if err := rd.ReadHeader(); err != nil {
		return
	}
	nc.SetReadDeadline(time.Time{})
	if err := w.WriteHeader(); err != nil || w.Flush() != nil {
		return
	}
	r := &replier{nc: nc, w: w}
	// inFlight-1 helpers take frames from the reader; when none is free
	// the reader admits the frame itself and reads no further until it
	// is answered, so at most inFlight frames are decoded at once. With
	// no helper (a node) every frame is admitted in arrival order.
	// busy counts the frames handed to helpers and not yet answered;
	// only the reader adds to it, so a send on frames never blocks.
	var busy atomic.Int32
	frames := make(chan frame, l.inFlight-1)
	var helpers sync.WaitGroup
	for range l.inFlight - 1 {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for f := range frames {
				l.admit(f, r)
				busy.Add(-1)
			}
		}()
	}
	defer helpers.Wait()
	defer close(frames)
	for {
		ft, payload, err := rd.Next()
		if err != nil || ft != wire.FrameData { // closed or broken; clients only send DATA
			return
		}
		l.Frames.Add(1)
		// The payload buffer is reused by the next Next: decode now.
		f := frame{d: l.pool.Get().(*wire.Data), start: time.Now()}
		if err := wire.DecodeData(payload, f.d); err != nil {
			// Framing passed CRC but the payload is malformed: broken peer.
			l.pool.Put(f.d)
			l.Errors.Add(1)
			l.frameLat.since(f.start)
			return
		}
		if int(busy.Load()) < l.inFlight-1 {
			busy.Add(1)
			frames <- f
		} else {
			l.admit(f, r)
		}
	}
}

// admit admits one decoded DATA frame and sends exactly one response
// frame for it.
func (l *Listener) admit(f frame, r *replier) {
	defer l.frameLat.since(f.start)
	d := f.d
	// Everything the response needs is copied out now: on admission the
	// backend owns d until its release fires.
	seq, tenant := d.Seq, d.Tenant
	if tenant == "" {
		tenant = engine.DefaultTenant
	} else if err := engine.ValidTenantName(tenant); err != nil {
		l.pool.Put(d)
		l.Errors.Add(1)
		r.send(func(w *wire.Writer) error { return w.WriteError(wire.ErrorFrame{Seq: seq, Msg: err.Error()}) })
		return
	}
	key := Key{Client: d.ClientID, Seq: seq}
	if l.b.Shed(key) {
		l.pool.Put(d)
		l.reject(r, seq, 0)
		return
	}
	applied, dup, err := l.b.IngestGroups(context.Background(), tenant, key, d.Groups, func() { l.pool.Put(d) })
	if err != nil {
		// Not admitted: d is ours again.
		l.pool.Put(d)
		if status, after, _ := classify(err, http.StatusBadRequest); retryStatus(status) {
			l.reject(r, seq, after)
			return
		}
		l.Errors.Add(1)
		r.send(func(w *wire.Writer) error { return w.WriteError(wire.ErrorFrame{Seq: seq, Msg: err.Error()}) })
		return
	}
	if dup {
		l.Duplicates.Add(1)
	} else {
		l.Updates.Add(applied)
	}
	r.send(func(w *wire.Writer) error { return w.WriteAck(wire.Ack{Seq: seq, Applied: applied, Duplicate: dup}) })
}

// reject answers a frame that applied nothing, so its seq stays
// replayable: resend it after the hint.
func (l *Listener) reject(r *replier, seq uint64, after time.Duration) {
	l.Rejected.Add(1)
	r.send(func(w *wire.Writer) error {
		return w.WriteReject(wire.Reject{Seq: seq, RetryAfter: uint32(retryAfterSeconds(after))})
	})
}

// replier is one connection's reply writer, shared by its reader and
// helpers. A reply is flushed only when no other reply is waiting to be
// written, so a burst of completions leaves in one write. A failed
// write closes the connection, which ends its reader.
type replier struct {
	nc      net.Conn
	w       *wire.Writer
	mu      sync.Mutex
	waiting atomic.Int32
	failed  bool
}

// send writes one response frame.
func (r *replier) send(write func(*wire.Writer) error) {
	r.waiting.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	// A reply that arrives after this check flushes its own write.
	last := r.waiting.Add(-1) == 0
	if r.failed {
		return
	}
	err := write(r.w)
	if err == nil && last {
		err = r.w.Flush()
	}
	if err != nil {
		r.failed = true
		r.nc.Close()
	}
}

// stats renders the counters for /stats "stream".
func (l *Listener) stats() map[string]any {
	return map[string]any{
		"addr":         l.ln.Addr().String(),
		"conns":        l.ConnsOpen.Load(),
		"connsTotal":   l.ConnsTotal.Load(),
		"frames":       l.Frames.Load(),
		"updates":      l.Updates.Load(),
		"duplicates":   l.Duplicates.Load(),
		"rejected":     l.Rejected.Load(),
		"errors":       l.Errors.Load(),
		"frameLatency": l.frameLat.render(),
	}
}

// String implements fmt.Stringer for the boot banner.
func (l *Listener) String() string {
	return fmt.Sprintf("sksp listener on %s", l.ln.Addr())
}
