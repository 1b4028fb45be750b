package wire

import "sync"

// Outcome is what the dedupe window remembers about an applied frame:
// enough to answer a replay without re-applying it.
type Outcome struct {
	// Applied is the element count acknowledged the first time.
	Applied int64
}

// Window is the bounded (clientID, seq) dedupe memory shared by the
// SKSP listener and the HTTP Idempotency-Key path. Only SUCCESSFUL
// outcomes are recorded: a rejected frame (quota 429) applied nothing,
// so the same seq must be retryable and is deliberately not remembered.
//
// An admission brackets itself with Claim and then Record (admitted) or
// Release (applied nothing), so two concurrent deliveries of one key
// never both apply: the second waits in Claim for the first's outcome.
//
// Per client the window keeps the last perClient recorded seqs (FIFO);
// across clients it keeps at most maxClients entries, evicting the
// least-recently-used client. A replay falling outside the window is
// indistinguishable from a fresh frame and will re-apply — the client
// contract is therefore to retry promptly and sequentially (at most
// perClient outstanding frames), which every client in this repository
// observes.
type Window struct {
	mu         sync.Mutex
	perClient  int
	maxClients int
	clock      int64
	clients    map[string]*clientWindow
	// claimed holds the keys whose admission is in flight. It lives
	// outside clients so an LRU eviction cannot drop a claim, and
	// settled wakes the Claims waiting on one whenever a claim ends.
	claimed map[claimKey]struct{}
	settled sync.Cond
}

type claimKey struct {
	client string
	seq    uint64
}

type clientWindow struct {
	seen    map[uint64]Outcome
	ring    []uint64 // recorded seqs in FIFO order
	n       int      // filled slots
	next    int      // ring cursor
	lastUse int64
}

// NewWindow returns a Window remembering the last perClient seqs for up
// to maxClients clients (defaults 4096 and 1024 for values ≤ 0).
func NewWindow(perClient, maxClients int) *Window {
	if perClient <= 0 {
		perClient = 4096
	}
	if maxClients <= 0 {
		maxClients = 1024
	}
	w := &Window{
		perClient:  perClient,
		maxClients: maxClients,
		clients:    make(map[string]*clientWindow),
		claimed:    make(map[claimKey]struct{}),
	}
	w.settled.L = &w.mu
	return w
}

// Lookup reports whether (client, seq) was recorded within the window,
// and the remembered outcome if so.
func (w *Window) Lookup(client string, seq uint64) (Outcome, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lookupLocked(client, seq)
}

// Claim reserves (client, seq) for one admission. If the key is
// recorded it returns the remembered outcome and true: a replay, which
// applies nothing. Otherwise the caller holds the claim and must end it
// with Record once the admission succeeds or Release once it fails. A
// Claim of a key another admission holds waits until that one ends,
// then returns the outcome it recorded or, if it released, claims the
// key itself.
func (w *Window) Claim(client string, seq uint64) (Outcome, bool) {
	k := claimKey{client, seq}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if out, ok := w.lookupLocked(client, seq); ok {
			return out, true
		}
		if _, busy := w.claimed[k]; !busy {
			w.claimed[k] = struct{}{}
			return Outcome{}, false
		}
		w.settled.Wait()
	}
}

// Release ends a claim whose admission applied nothing, so the key stays
// retryable.
func (w *Window) Release(client string, seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.endClaimLocked(client, seq)
}

// endClaimLocked drops a claim on (client, seq), if any, and wakes the
// Claims waiting for one to end.
func (w *Window) endClaimLocked(client string, seq uint64) {
	delete(w.claimed, claimKey{client, seq})
	w.settled.Broadcast()
}

func (w *Window) lookupLocked(client string, seq uint64) (Outcome, bool) {
	cw, ok := w.clients[client]
	if !ok {
		return Outcome{}, false
	}
	w.clock++
	cw.lastUse = w.clock
	out, ok := cw.seen[seq]
	return out, ok
}

// Record remembers (client, seq) → out and ends its claim, if any,
// evicting the client's oldest recorded seq beyond the per-client bound
// and the least-recently-used client beyond the client bound.
func (w *Window) Record(client string, seq uint64, out Outcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.endClaimLocked(client, seq)
	w.clock++
	cw, ok := w.clients[client]
	if !ok {
		if len(w.clients) >= w.maxClients {
			w.evictLRULocked()
		}
		cw = &clientWindow{
			seen: make(map[uint64]Outcome),
			ring: make([]uint64, w.perClient),
		}
		w.clients[client] = cw
	}
	cw.lastUse = w.clock
	if _, dup := cw.seen[seq]; dup {
		cw.seen[seq] = out // refresh in place; ring position unchanged
		return
	}
	if cw.n == len(cw.ring) {
		delete(cw.seen, cw.ring[cw.next])
	} else {
		cw.n++
	}
	cw.ring[cw.next] = seq
	cw.next = (cw.next + 1) % len(cw.ring)
	cw.seen[seq] = out
}

// evictLRULocked drops the least-recently-used client. Called with
// w.mu held, only when the client bound is hit, so the linear scan is
// amortized against an entire client lifetime.
func (w *Window) evictLRULocked() {
	var victim string
	var min int64
	first := true
	for name, cw := range w.clients {
		if first || cw.lastUse < min {
			victim, min, first = name, cw.lastUse, false
		}
	}
	if !first {
		delete(w.clients, victim)
	}
}

// Clients reports the number of tracked clients (for stats).
func (w *Window) Clients() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.clients)
}
