package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"skimsketch/internal/monitor"
	"skimsketch/internal/stream"
)

// The batched ingestion pipeline: N shard workers, each owning a disjoint
// subset of the engine's synopses (hash on the synopsis id), fed by
// bounded channels. A batch for stream S is fanned out to every shard
// holding a synopsis over S; the send blocks when a worker queue is full,
// which is the pipeline's backpressure. Because each synopsis belongs to
// exactly one shard, workers never write the same counters and apply
// concurrently without a lock.
//
// The pipeline is shared by every tenant: batches are routed on
// (tenant, stream) and a tenant's queue share is metered by its pending-
// update count, admission-checked against Quota.MaxPendingUpdates — so
// thousands of small tenants ride one worker pool without one of them
// starving the rest.
//
// The pipeline is the engine's only path from a stream into its
// synopses: every update is admitted by IngestGroups and applied by a
// shard worker.
//
// Consistency contract: a producer holds ing.fanMu's read side from its
// closed check through admission (validation, quota and counters, under
// e.mu) to the last enqueue of its request. Readers quiesce by taking
// ing.fanMu exclusively and draining every worker queue with a barrier,
// and only then read under e.mu. With fanMu held no batch can be
// enqueued, and past the barrier none is queued or mid-apply, so no
// worker touches a synopsis while the reader holds fanMu. StopIngest
// keeps fanMu until its workers have exited, so a reader that finds the
// pipeline closed finds it drained too. A quiesced read therefore sees
// every request whole or not at all: its counters, its tenant's pending
// gauge and every synopsis it reaches. The lock order is ing.fanMu, e.mu.

// IngestConfig tunes the concurrent ingestion pipeline.
type IngestConfig struct {
	// Workers is the number of shard workers. <= 0 defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// BatchSize is the maximum number of updates per queued batch; larger
	// IngestBatch calls are split on BatchSize boundaries. <= 0 defaults
	// to 256.
	BatchSize int
	// QueueDepth is each worker's queue capacity in batches; a full queue
	// blocks producers (backpressure). <= 0 defaults to 64.
	QueueDepth int
}

func (c *IngestConfig) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
}

// ingestItem is one unit of worker work: apply batch to entries (all
// owned by the receiving worker's shard). A barrier item instead signals
// the WaitGroup, implementing Flush.
type ingestItem struct {
	entries []*synEntry
	batch   []stream.Update
	// count is the number of elements this item accounts for in the
	// applied-updates metric and the owner tenant's pending gauge; only
	// one shard of a fan-out carries it, so elements are counted once
	// however many synopses they reach.
	count int
	// tenant is the pending-gauge owner for count-carrying items.
	tenant  *tenantState
	barrier *sync.WaitGroup
	// done, when non-nil, is the refcount of an IngestGroups request with
	// a release callback; the worker drops one reference once it has
	// copied the item's batch out for folding.
	done *groupDone
}

// groupDone refcounts one IngestGroups request across the items it fans
// out to. refs starts at 1 (the creator's reference, dropped when the
// fan-out finishes enqueueing) and each queued item holds one more, so
// release fires exactly once, after a worker has copied out every chunk
// of every group — at which point the engine no longer references the
// caller's update buffers and they may be reused.
type groupDone struct {
	refs    atomic.Int64
	release func()
}

func newGroupDone(release func()) *groupDone {
	d := &groupDone{release: release}
	d.refs.Store(1)
	return d
}

func (d *groupDone) add() { d.refs.Add(1) }

func (d *groupDone) done() {
	if d.refs.Add(-1) == 0 {
		d.release()
	}
}

type ingester struct {
	cfg   IngestConfig
	chans []chan ingestItem
	wg    sync.WaitGroup

	// fanMu makes a request's admission and fan-out atomic with respect
	// to barriers: producers hold the read side from the closed check to
	// their last shard send; Flush/quiesce/Stop hold the write side.
	// closed is guarded by fanMu.
	fanMu  sync.RWMutex
	closed bool
}

// ErrNotIngesting is wrapped by every ingest request refused because no
// pipeline runs, before StartIngest or after StopIngest. A refused
// request admitted and counted nothing.
var ErrNotIngesting = errors.New("ingest pipeline not running")

var errNotIngesting = fmt.Errorf("engine: %w", ErrNotIngesting)

// StartIngest launches the ingestion pipeline, the engine's only path
// from a stream into its synopses: IngestBatch and IngestGroups are
// refused until it runs. It fails if a pipeline was already started,
// including one since stopped.
func (e *Engine) StartIngest(cfg IngestConfig) error {
	cfg.applyDefaults()
	ing := &ingester{cfg: cfg, chans: make([]chan ingestItem, cfg.Workers)}
	for i := range ing.chans {
		ing.chans[i] = make(chan ingestItem, cfg.QueueDepth)
	}
	if !e.ing.CompareAndSwap(nil, ing) {
		return fmt.Errorf("engine: ingest pipeline already started")
	}
	ing.wg.Add(cfg.Workers)
	for i := range ing.chans {
		go ing.worker(e, ing.chans[i])
	}
	return nil
}

// StopIngest drains and shuts down the pipeline: queued batches are
// fully applied before it returns, and later ingest requests are
// refused. It is a no-op if no pipeline was started.
func (e *Engine) StopIngest() {
	ing := e.ing.Load()
	if ing == nil {
		return
	}
	ing.fanMu.Lock()
	defer ing.fanMu.Unlock()
	if !ing.closed {
		ing.closed = true
		for _, ch := range ing.chans {
			close(ch)
		}
	}
	// Workers drain their queues before exiting. Waiting under fanMu
	// keeps readers out until no worker can touch a synopsis.
	ing.wg.Wait()
}

// worker applies queued batches to its shard's synopses. Workers run
// concurrently, since their synopsis sets are disjoint; readers exclude
// them by quiescing (the package comment above).
func (ing *ingester) worker(e *Engine, ch chan ingestItem) {
	defer ing.wg.Done()
	var b backlog
	for item := range ch {
		for {
			next, held := b.take(item, ch)
			b.apply(e)
			if !held {
				break
			}
			item = next
		}
	}
}

// backlogCap is how many queued updates a worker takes in one round.
// One route's run of a full round is long enough for UpdateBatch to
// fold each distinct value once.
const backlogCap = 4096

// backlog is one worker round: an item and whatever was queued behind
// it, grouped into runs by route. A route is the []*synEntry slice one
// (tenant, stream) shares on this shard, and each run folds its items'
// batches joined, in queue order, with one updateBatch per synopsis.
type backlog struct {
	items   []ingestItem
	run     []int // run[i] indexes routes for items[i]; -1 when it has no entries
	routes  [][]*synEntry
	updates int
	joined  []stream.Update // the run being folded, copied end to end
	scratch []stream.Update // predicate synopses filter into it
}

// take starts a round with first and adds the items already queued
// behind it, up to backlogCap updates or a queue's worth of items. It
// stops after a barrier, and before an item whose route is new to the
// round but shares a synopsis with one of its routes: folding the two
// runs one after the other could reorder that synopsis' updates. That
// item is returned held, to start the next round.
func (b *backlog) take(first ingestItem, ch chan ingestItem) (held ingestItem, ok bool) {
	b.items, b.run, b.routes, b.updates = b.items[:0], b.run[:0], b.routes[:0], 0
	for item := first; ; {
		if !b.add(item) {
			return item, true
		}
		if item.barrier != nil || b.updates >= backlogCap || len(b.items) >= cap(ch) {
			return ingestItem{}, false
		}
		select {
		case next, open := <-ch:
			if !open {
				return ingestItem{}, false
			}
			item = next
		default:
			return ingestItem{}, false
		}
	}
}

// add appends item to its route's run, unless the route is new and
// shares a synopsis with a route already in the round.
func (b *backlog) add(item ingestItem) bool {
	r := -1
	if len(item.entries) > 0 {
		if r = b.routeOf(item.entries); r < 0 {
			return false
		}
	}
	b.items = append(b.items, item)
	b.run = append(b.run, r)
	b.updates += len(item.batch)
	return true
}

// routeOf returns the index of entries in b.routes, adding it if it is
// new, or -1 if it is new and overlaps a route of the round.
func (b *backlog) routeOf(entries []*synEntry) int {
	for i, r := range b.routes {
		if &r[0] == &entries[0] && len(r) == len(entries) {
			return i
		}
	}
	for _, r := range b.routes {
		for _, en := range r {
			if slices.Contains(entries, en) {
				return -1
			}
		}
	}
	b.routes = append(b.routes, entries)
	return len(b.routes) - 1
}

// apply folds every run, then settles each item in queue order: the
// counters, the tenant's pending gauge, and a barrier last of all.
func (b *backlog) apply(e *Engine) {
	for r, entries := range b.routes {
		batch := b.join(r)
		for _, en := range entries {
			b.scratch = en.updateBatch(batch, b.scratch)
		}
	}
	e.metrics.Folds.Add(int64(len(b.routes)))
	for _, item := range b.items {
		if item.barrier != nil {
			item.barrier.Done()
			continue
		}
		e.metrics.QueueDepth.Add(-1)
		if item.count > 0 {
			e.metrics.UpdatesApplied.Add(int64(item.count))
			item.tenant.pending.Add(-int64(item.count))
		}
		e.metrics.Batches.Add(1)
		if item.done != nil {
			item.done.done()
		}
	}
	clear(b.items) // hold no caller buffer or synopsis past the round
	clear(b.routes)
}

// join copies route r's batches end to end, in queue order, into
// b.joined. Each copied item drops its reference on its request at
// once, since the worker reads only the copy from then on, so a
// producer gets its buffers back before the round's folds.
func (b *backlog) join(r int) []stream.Update {
	b.joined = b.joined[:0]
	for i := range b.items {
		if b.run[i] != r {
			continue
		}
		item := &b.items[i]
		b.joined = append(b.joined, item.batch...)
		if item.done != nil {
			item.done.done()
			item.done = nil
		}
	}
	return b.joined
}

// barrierLocked drains every worker queue: the barrier items are FIFO
// behind all previously enqueued batches. Callers hold ing.fanMu
// exclusively, so no batch can be half-fanned-out across the barrier.
func (ing *ingester) barrierLocked() {
	var wg sync.WaitGroup
	wg.Add(len(ing.chans))
	for _, ch := range ing.chans {
		ch <- ingestItem{barrier: &wg}
	}
	wg.Wait()
}

// enqueue fans the batch out to the shards named by route, splitting it
// into BatchSize chunks. A batch no synopsis listens to is counted as
// unrouted, settled in the tenant's pending gauge and never queued.
// done, when non-nil, gains one reference per queued item (the worker
// drops it once it has copied the item's batch). Callers hold
// ing.fanMu's read side and have checked that the pipeline is open.
func (ing *ingester) enqueue(e *Engine, ts *tenantState, route [][]*synEntry, updates []stream.Update, done *groupDone) {
	if !routed(route) {
		e.metrics.UpdatesUnrouted.Add(int64(len(updates)))
		ts.pending.Add(-int64(len(updates)))
		return
	}
	bs := ing.cfg.BatchSize
	for off := 0; off < len(updates); off += bs {
		chunk := updates[off:min(off+bs, len(updates))]
		counted := false
		for shard, entries := range route {
			if len(entries) == 0 {
				continue
			}
			item := ingestItem{entries: entries, batch: chunk}
			if !counted {
				item.count = len(chunk)
				item.tenant = ts
				counted = true
			}
			if done != nil {
				done.add()
				item.done = done
			}
			e.metrics.QueueDepth.Add(1)
			ing.chans[shard] <- item
		}
	}
}

// routed reports whether any synopsis listens to the stream route
// belongs to.
func routed(route [][]*synEntry) bool {
	for _, entries := range route {
		if len(entries) > 0 {
			return true
		}
	}
	return false
}

// StreamError is a request refused at admission because one group's
// stream is not declared in the tenant or holds a value outside the
// stream's domain. Stream names that group; nothing was admitted.
type StreamError struct {
	Stream string
	Err    error
}

func (e *StreamError) Error() string { return e.Err.Error() }
func (e *StreamError) Unwrap() error { return e.Err }

// validateLocked checks that the tenant's stream is declared and every
// value lies inside its domain, failing with a *StreamError. Callers
// hold e.mu.
func (e *Engine) validateLocked(tenant, streamName string, updates []stream.Update) error {
	info, ok := e.streams[nsKey{tenant, streamName}]
	if !ok {
		return &StreamError{Stream: streamName, Err: fmt.Errorf("engine: unknown stream %q", streamName)}
	}
	if err := stream.Validate(updates, info.domain); err != nil {
		return &StreamError{Stream: streamName, Err: fmt.Errorf("engine: stream %q: %w", streamName, err)}
	}
	return nil
}

// IngestBatch validates and ingests a batch of updates for one of the
// tenant's streams: the batch is enqueued to the shard workers and
// applied asynchronously — a following Flush, Answer, Snapshot or Stats
// call observes it; a full queue blocks (backpressure). The result is
// bit-for-bit identical to folding the updates into each synopsis one at
// a time, in order. It is a one-group IngestGroups, with the same
// validation, quota and refusal contract.
func (t *Tenant) IngestBatch(streamName string, updates []stream.Update) error {
	if len(updates) == 0 {
		return nil
	}
	return t.IngestGroups([]stream.Group{{Name: streamName, Updates: updates}}, nil)
}

// IngestGroups validates and ingests one multi-stream request
// atomically: every group is validated (stream declared, values in
// domain) and the tenant's queue-share quota is checked against the
// request's SUMMED update count before anything is admitted. A group
// that fails validation fails the request with a *StreamError naming its
// stream. On error nothing has been applied, enqueued, or counted — a
// quota rejection (wrapping ErrQuotaExceeded) therefore really means
// "retry the whole request", never "part of it landed". Without a
// running pipeline a request is refused with an error wrapping
// ErrNotIngesting; an empty request is a no-op either way.
//
// release, when non-nil, transfers buffer ownership: on a nil return
// the engine references the groups' Updates slices until the shard
// workers have copied out every element to fold it, and then calls
// release exactly once — after which the caller may reuse the buffers.
// On a non-nil return the engine retains nothing and release is never
// called. A nil release keeps IngestBatch's historical contract (the
// caller must not reuse the slices).
func (t *Tenant) IngestGroups(groups []stream.Group, release func()) error {
	total := 0
	for i := range groups {
		total += len(groups[i].Updates)
	}
	if total == 0 {
		if release != nil {
			release()
		}
		return nil
	}
	ing := t.e.ing.Load()
	if ing == nil {
		return errNotIngesting
	}
	ing.fanMu.RLock()
	if ing.closed {
		ing.fanMu.RUnlock()
		return errNotIngesting
	}
	var stackRoutes [4][][]*synEntry
	ts, routes, err := t.admit(groups, total, len(ing.chans), stackRoutes[:0])
	if err != nil {
		ing.fanMu.RUnlock()
		return err
	}
	var done *groupDone
	if release != nil {
		done = newGroupDone(release)
	}
	for i := range groups {
		ing.enqueue(t.e, ts, routes[i], groups[i].Updates, done)
	}
	ing.fanMu.RUnlock()
	if done != nil {
		done.done() // drop the creator reference
	}
	return nil
}

// admit validates a request and checks the tenant's queue share against
// its summed size. Once admission is certain it appends every group's
// route to routes and counts the request as enqueued and pending, all
// under one e.mu hold, so no concurrent request can wedge between the
// groups of this one.
func (t *Tenant) admit(groups []stream.Group, total, shards int, routes [][][]*synEntry) (*tenantState, [][][]*synEntry, error) {
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range groups {
		if err := e.validateLocked(t.name, groups[i].Name, groups[i].Updates); err != nil {
			return nil, nil, err
		}
	}
	ts := e.tenantLocked(t.name)
	if max := ts.quota.MaxPendingUpdates; max > 0 {
		if pend := ts.pending.Load(); pend+int64(total) > max {
			ts.rejected.Add(int64(total))
			e.metrics.Rejected.Add(int64(total))
			return nil, nil, fmt.Errorf("engine: tenant %q: %d pending + %d batched updates over queue-share quota %d: %w",
				t.name, pend, total, max, ErrQuotaExceeded)
		}
	}
	for i := range groups {
		routes = append(routes, e.routeLocked(t.name, groups[i].Name, shards))
		e.streams[nsKey{t.name, groups[i].Name}].count += int64(len(groups[i].Updates))
	}
	e.metrics.UpdatesEnqueued.Add(int64(total))
	ts.pending.Add(int64(total))
	return ts, routes, nil
}

// Flush blocks until every batch enqueued before the call is fully
// applied. It is a no-op without a running pipeline.
func (e *Engine) Flush() {
	if ing := e.quiesce(); ing != nil {
		ing.fanMu.Unlock()
	}
}

// routeLocked returns the per-shard synopsis lists for a tenant's
// stream, computing and caching them on first use. The cache is dropped
// whenever the synopsis set changes; the shard count is fixed for the
// engine's life. Callers hold e.mu.
func (e *Engine) routeLocked(tenant, streamName string, shards int) [][]*synEntry {
	if e.routes == nil {
		e.routes = make(map[nsKey][][]*synEntry)
	}
	key := nsKey{tenant, streamName}
	if r, ok := e.routes[key]; ok {
		return r
	}
	r := make([][]*synEntry, shards)
	for _, en := range e.synopses {
		if en.key.tenant == tenant && en.key.Stream == streamName {
			s := en.id % shards
			r[s] = append(r[s], en)
		}
	}
	e.routes[key] = r
	return r
}

// IngestSaturated reports whether the ingestion pipeline has been
// started and at least one shard queue is full. It is an
// admission-control probe for load shedding: a server that checks it
// before enqueueing can return 429 instead of blocking on a full queue.
// The answer is advisory — a racing producer can fill (or a worker
// drain) a queue immediately after the probe — so an admitted batch may
// still block briefly; what the probe guarantees is that a saturated
// pipeline is detected without touching the queues.
func (e *Engine) IngestSaturated() bool {
	ing := e.ing.Load()
	if ing == nil {
		return false
	}
	for _, ch := range ing.chans {
		if len(ch) == cap(ch) {
			return true
		}
	}
	return false
}

// NoteRejected records n stream elements refused for backpressure (the
// caller chose load shedding over blocking). Surfaced via IngestStats.
func (e *Engine) NoteRejected(n int64) {
	e.metrics.Rejected.Add(n)
}

// IngestStats returns the ingestion pipeline counters (updates enqueued
// and applied, batches, mean batch fill, queue depth, flushes,
// backpressure rejections, and the lifetime updates/sec rate) without
// quiescing, so a request may be counted as enqueued but not yet
// applied. Stats.Ingest is the quiesced copy.
func (e *Engine) IngestStats() monitor.IngestSnapshot {
	return e.metrics.Snapshot()
}

// quiesce takes ing.fanMu exclusively, so no request is mid-admission
// or mid-fan-out, and drains every worker queue. It returns the pipeline
// whose fanMu the caller must unlock, or nil if none was started.
func (e *Engine) quiesce() *ingester {
	ing := e.ing.Load()
	if ing == nil {
		return nil
	}
	ing.fanMu.Lock()
	if !ing.closed {
		ing.barrierLocked()
		e.metrics.Flushes.Add(1)
	}
	return ing
}

// readQuiesce drains the pipeline and acquires the locks a consistent
// read needs: ing.fanMu exclusively (quiesce: no worker mid-apply) and
// e.mu (map state). The returned function releases both.
func (e *Engine) readQuiesce() func() {
	ing := e.quiesce()
	e.mu.Lock()
	return func() {
		e.mu.Unlock()
		if ing != nil {
			ing.fanMu.Unlock()
		}
	}
}
