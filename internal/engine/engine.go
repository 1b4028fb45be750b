// Package engine implements the stream query-processing architecture of
// the paper's Figure 1: named streams flow in; registered continuous
// queries of the form AGG(F ⋈ G) — COUNT or SUM, with optional selection
// predicates and sliding windows — are maintained as sketch synopses;
// approximate answers are served on demand.
//
// The engine applies synopsis sharing in the spirit of the companion
// paper ("Sketch-Based Multi-Query Processing over Data Streams", Dobra
// et al.): two query sides over the same stream with the same predicate
// and window share a single synopsis, so the per-element work and the
// memory footprint grow with the number of *distinct* synopses, not the
// number of queries. Reference counts garbage-collect synopses when the
// last query using them is removed.
//
// Every piece of engine state is scoped to a tenant namespace: synopsis
// identity is (tenant, Side), and streams, predicates, queries, standing
// watches and the answer cache are all keyed by (tenant, name). One
// engine therefore cheaply hosts thousands of independent per-tenant
// registries — the skimmed-sketch synopses are tiny linear summaries —
// behind a single shared ingest pipeline, with per-tenant quotas on
// synopsis memory and queue share (Quota). Engine methods are
// engine-wide (pipeline, quotas, stats, snapshots); every scoped
// operation goes through a Tenant handle, and a single-tenant caller
// uses Tenant(DefaultTenant).
//
// Every synopsis has the one engine-wide sketch configuration (one
// seed), which makes every pair of synopses join-compatible.
package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"skimsketch/internal/core"
	"skimsketch/internal/monitor"
	"skimsketch/internal/stream"
	"skimsketch/internal/window"
)

// Aggregate selects the aggregate operator of a query.
type Aggregate int

const (
	// Count is COUNT(F ⋈ G) = Σ_v f_v·g_v.
	Count Aggregate = iota
	// Sum is SUM over the right side's measure: each right-stream update's
	// weight is interpreted as a measure (SUM-as-weighted-COUNT,
	// Section 2.1 of the paper).
	Sum
)

// String names the aggregate.
func (a Aggregate) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	default:
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
}

// MarshalText writes the aggregate's name, so it travels as "COUNT" or
// "SUM" in JSON.
func (a Aggregate) MarshalText() ([]byte, error) {
	if a != Count && a != Sum {
		return nil, fmt.Errorf("engine: unknown aggregate %v", a)
	}
	return []byte(a.String()), nil
}

// UnmarshalText reads an aggregate name in any case; the empty name is
// COUNT.
func (a *Aggregate) UnmarshalText(text []byte) error {
	switch strings.ToUpper(string(text)) {
	case "COUNT", "":
		*a = Count
	case "SUM":
		*a = Sum
	default:
		return fmt.Errorf("unknown aggregate %q", text)
	}
	return nil
}

// Predicate is a selection predicate: a query side over it sketches
// only the stream elements whose value lies in [Min, Max]. Being data,
// not code, it travels in snapshots with the queries that name it.
type Predicate struct {
	Min uint64 `json:"min"`
	Max uint64 `json:"max"`
}

// Side describes one input of a join query. Within a tenant it is also
// the identity of the synopsis that sketches the input.
type Side struct {
	// Stream is the declared stream name.
	Stream string `json:"stream"`
	// Predicate optionally names a registered predicate applied to this
	// side before sketching (predicate pushdown).
	Predicate string `json:"predicate,omitempty"`
	// WindowLen, if positive, restricts this side to (approximately) its
	// most recent WindowLen elements, tiled into WindowBuckets buckets.
	WindowLen     int64 `json:"windowLen,omitempty"`
	WindowBuckets int   `json:"windowBuckets,omitempty"`
}

// QuerySpec registers one continuous query.
type QuerySpec struct {
	Name  string
	Agg   Aggregate
	Left  Side
	Right Side
}

// Answer is one approximate query result.
type Answer struct {
	Query    string
	Agg      Aggregate
	Estimate int64
	// Detail is the decomposed skimmed-sketch estimate.
	Detail core.Estimate
}

// Options configures an Engine.
type Options struct {
	// SketchConfig is the default synopsis configuration.
	SketchConfig core.Config
	// QueryWorkers parallelizes the skim's domain scan inside Answer:
	// > 1 uses that many goroutines, 0 or 1 scans sequentially, < 0 uses
	// one goroutine per CPU. The subjoins after the scan are sequential
	// (core.Options.Workers). Answers are
	// bit-identical for every setting (core's parallel-skim exactness
	// guarantee), so this trades nothing but CPU for latency.
	QueryWorkers int
	// DefaultQuota is applied to every tenant that has no explicit
	// SetQuota override. The zero value is unlimited.
	DefaultQuota Quota
}

// Engine is the stream query processor. All methods are safe for
// concurrent use. Updates reach synopses only through the ingestion
// pipeline (StartIngest): shard workers apply batches concurrently, and
// reads quiesce the pipeline first.
type Engine struct {
	mu           sync.Mutex
	defaults     core.Config
	defaultQuota Quota
	tenants      map[string]*tenantState
	streams      map[nsKey]*streamInfo
	predicates   map[nsKey]Predicate
	synopses     map[synKey]*synEntry
	queries      map[nsKey]*queryState

	// Batched-ingestion state (see ingest.go). ing is set once, by
	// StartIngest, and never cleared; nextSynID hands each synopsis its
	// shard-hash identity; routes caches per-(tenant, stream) shard
	// fan-out lists and is dropped whenever the synopsis set changes.
	ing       atomic.Pointer[ingester]
	nextSynID int
	routes    map[nsKey][][]*synEntry
	metrics   *monitor.IngestMetrics

	// Query-path state (see Answer): the number of estimation workers,
	// fixed by New, and the per-(tenant, query) answer cache keyed on the
	// synopsis epochs captured at snapshot time (each tenant counts its
	// own hits and misses), guarded by e.mu.
	queryWorkers int
	answers      map[nsKey]cachedAnswer
	// beforeEstimate, when set, runs in Answer after the locks are
	// released and before the estimate: tests hold an answer there to
	// show that ingestion proceeds meanwhile.
	beforeEstimate func()

	// watches is the tenant-keyed standing-query registry (watch.go);
	// its own lock nests strictly inside e.mu.
	watches *monitor.Registry
}

// nsKey scopes a name (stream, predicate, query, cached answer) to its
// tenant namespace.
type nsKey struct {
	tenant string
	name   string
}

// cachedAnswer memoizes one query's last computed answer together with
// the update epochs of its two synopses at snapshot time. Any update
// routed to either synopsis bumps that synopsis' epoch, so an epoch
// mismatch is exactly "the cache entry is stale".
type cachedAnswer struct {
	leftEpoch, rightEpoch uint64
	ans                   Answer
}

type streamInfo struct {
	domain uint64
	count  int64 // updates received
}

// synKey identifies a shareable synopsis. The tenant is part of the
// identity: two tenants registering byte-identical sides get two
// independent synopses, never a shared one.
type synKey struct {
	tenant string
	Side
}

type synEntry struct {
	key  synKey
	id   int // creation-order identity; shard = id mod workers
	refs int
	pred *Predicate // nil means accept all
	// allocWords is the synopsis' word footprint at creation, charged
	// against (and refunded to) its tenant's memory quota.
	allocWords int
	// Exactly one of sketch/win is set.
	sketch *core.HashSketch
	win    *window.Window
	// epoch counts update deliveries to this synopsis. It is written only
	// by the one shard worker that owns the synopsis, and read only by a
	// quiesced reader (readQuiesce), which no worker overlaps, so plain
	// arithmetic is race-free. Answer snapshots it to key the answer
	// cache.
	epoch uint64
}

// updateBatch folds a whole batch into the synopsis with one batched
// update. A predicate synopsis folds only the updates its predicate
// accepts, in order: they are filtered into scratch, a buffer the
// calling shard worker owns, which is returned for reuse.
func (e *synEntry) updateBatch(batch, scratch []stream.Update) []stream.Update {
	e.epoch += uint64(len(batch))
	if p := e.pred; p != nil {
		scratch = scratch[:0]
		for _, u := range batch {
			if u.Value >= p.Min && u.Value <= p.Max {
				scratch = append(scratch, u)
			}
		}
		batch = scratch
	}
	if e.win != nil {
		e.win.UpdateBatch(batch)
	} else {
		e.sketch.UpdateBatch(batch)
	}
	return scratch
}

// snapshot returns a private copy suitable for estimation after the
// quiesce is released: a window's Combined is already a fresh roll-up,
// a plain synopsis is cloned. Callers hold the quiesced read locks
// (readQuiesce) for the duration of the copy only.
func (e *synEntry) snapshot() *core.HashSketch {
	if e.win != nil {
		return e.win.Combined()
	}
	return e.sketch.Clone()
}

type queryState struct {
	spec        QuerySpec
	left, right *synEntry
	domain      uint64
}

// New returns an empty engine.
func New(opts Options) (*Engine, error) {
	if err := opts.SketchConfig.Validate(); err != nil {
		return nil, fmt.Errorf("engine: default sketch config: %w", err)
	}
	if err := opts.DefaultQuota.validate(); err != nil {
		return nil, fmt.Errorf("engine: default quota: %w", err)
	}
	return &Engine{
		defaults:     opts.SketchConfig,
		defaultQuota: opts.DefaultQuota,
		tenants:      make(map[string]*tenantState),
		streams:      make(map[nsKey]*streamInfo),
		predicates:   make(map[nsKey]Predicate),
		synopses:     make(map[synKey]*synEntry),
		queries:      make(map[nsKey]*queryState),
		metrics:      monitor.NewIngestMetrics(),
		queryWorkers: opts.QueryWorkers,
		answers:      make(map[nsKey]cachedAnswer),
		watches:      monitor.NewRegistry(),
	}, nil
}

// registerLocked is tenant-scoped query registration with e.mu held
// (shared with Restore).
func (e *Engine) registerLocked(tenant string, spec QuerySpec) error {
	if spec.Name == "" {
		return fmt.Errorf("engine: query name must be non-empty")
	}
	if spec.Agg != Count && spec.Agg != Sum {
		return fmt.Errorf("engine: query %q: unsupported aggregate %v", spec.Name, spec.Agg)
	}
	qk := nsKey{tenant, spec.Name}
	if _, ok := e.queries[qk]; ok {
		return fmt.Errorf("engine: query %q already registered", spec.Name)
	}
	lDomain, err := e.sideDomain(tenant, spec.Left)
	if err != nil {
		return fmt.Errorf("engine: query %q: left: %w", spec.Name, err)
	}
	rDomain, err := e.sideDomain(tenant, spec.Right)
	if err != nil {
		return fmt.Errorf("engine: query %q: right: %w", spec.Name, err)
	}
	domain := lDomain
	if rDomain > domain {
		domain = rDomain
	}

	left, err := e.acquireSynopsis(tenant, spec.Left)
	if err != nil {
		return fmt.Errorf("engine: query %q: left: %w", spec.Name, err)
	}
	right, err := e.acquireSynopsis(tenant, spec.Right)
	if err != nil {
		e.release(left)
		return fmt.Errorf("engine: query %q: right: %w", spec.Name, err)
	}
	e.queries[qk] = &queryState{spec: spec, left: left, right: right, domain: domain}
	// A fresh synopsis pair restarts at epoch 0; drop any answer cached
	// under this name so it cannot masquerade as current.
	delete(e.answers, qk)
	return nil
}

func (e *Engine) sideDomain(tenant string, s Side) (uint64, error) {
	info, ok := e.streams[nsKey{tenant, s.Stream}]
	if !ok {
		return 0, fmt.Errorf("unknown stream %q", s.Stream)
	}
	return info.domain, nil
}

// acquireSynopsis returns a shared or fresh synopsis for the side,
// charging a fresh one against the tenant's memory quota. Callers hold
// e.mu.
func (e *Engine) acquireSynopsis(tenant string, s Side) (*synEntry, error) {
	var pred *Predicate
	if s.Predicate != "" {
		p, ok := e.predicates[nsKey{tenant, s.Predicate}]
		if !ok {
			return nil, fmt.Errorf("unknown predicate %q", s.Predicate)
		}
		pred = &p
	}
	key := synKey{tenant, s}
	if entry, ok := e.synopses[key]; ok {
		entry.refs++
		return entry, nil
	}
	cfg := e.defaults
	words, err := synopsisWords(cfg, s.WindowBuckets)
	if err != nil {
		return nil, err
	}
	ts := e.tenantLocked(tenant)
	if max := ts.quota.MaxSynopsisWords; max > 0 && ts.words+words > max {
		return nil, fmt.Errorf("engine: tenant %q: synopsis memory %d + %d words over quota %d: %w",
			tenant, ts.words, words, max, ErrQuotaExceeded)
	}
	entry := &synEntry{key: key, id: e.nextSynID, refs: 1, pred: pred, allocWords: words}
	if s.WindowLen > 0 {
		w, err := window.New(s.WindowLen, s.WindowBuckets, cfg)
		if err != nil {
			return nil, err
		}
		entry.win = w
	} else {
		if s.WindowBuckets != 0 {
			return nil, fmt.Errorf("WindowBuckets set without WindowLen")
		}
		sk, err := core.NewHashSketch(cfg)
		if err != nil {
			return nil, err
		}
		entry.sketch = sk
	}
	ts.words += entry.allocWords
	e.nextSynID++
	e.routes = nil // the synopsis set is changing
	e.synopses[key] = entry
	return entry, nil
}

// synopsisWords is the counter-word footprint of a synopsis with cfg and
// windowBuckets buckets (0 for a plain sketch), computed before anything
// is allocated so the memory quota refuses a synopsis it would not fit.
func synopsisWords(cfg core.Config, windowBuckets int) (int, error) {
	words, n := cfg.Tables, max(1, windowBuckets)
	for _, f := range []int{cfg.Buckets, n} {
		if f <= 0 || words > math.MaxInt/f {
			return 0, fmt.Errorf("synopsis of %+v over %d window buckets has no representable size", cfg, windowBuckets)
		}
		words *= f
	}
	return words, nil
}

func (e *Engine) release(entry *synEntry) {
	entry.refs--
	if entry.refs <= 0 {
		delete(e.synopses, entry.key)
		e.tenantLocked(entry.key.tenant).words -= entry.allocWords
		e.routes = nil
	}
}

// Answer serves the current approximate answer of a query registered in
// this tenant. If the ingestion pipeline is running it is drained first,
// so the answer reflects every batch enqueued before the call.
//
// The quiesce is held only long enough to clone the two synopses and
// capture their update epochs; the estimation itself (the skim, which
// tests only the preimages of hot buckets, then the sub-joins) runs
// outside every lock, so ingestion proceeds concurrently with it. If
// both epochs match a previously computed answer, that answer is
// returned without re-estimating (the per-(tenant, query) answer
// cache); any update routed to either synopsis bumps its epoch and so
// invalidates the entry.
func (t *Tenant) Answer(name string) (Answer, error) {
	e := t.e
	qk := nsKey{t.name, name}
	var hit Answer
	qs, q, err := t.cut(name, func(qs QuerySnapshot) bool {
		ts := e.tenantLocked(t.name)
		c, ok := e.answers[qk]
		if ok && c.leftEpoch == qs.LeftEpoch && c.rightEpoch == qs.RightEpoch {
			ts.cacheHits++
			hit = c.ans
			return true
		}
		ts.cacheMisses++
		return false
	})
	if err != nil {
		return Answer{}, err
	}
	if qs.Left == nil {
		return hit, nil
	}

	if e.beforeEstimate != nil {
		e.beforeEstimate()
	}
	est, err := core.EstimateJoin(qs.Left, qs.Right, qs.Domain, &core.Options{Workers: e.queryWorkers})
	if err != nil {
		return Answer{}, fmt.Errorf("engine: query %q: %w", name, err)
	}
	ans := Answer{Query: name, Agg: qs.Agg, Estimate: est.Total, Detail: est}

	// Store under e.mu, but only if the query we snapshotted is still the
	// registered one — a concurrent Remove+Register must not resurrect an
	// answer computed over the old synopses.
	e.mu.Lock()
	if cur, ok := e.queries[qk]; ok && cur == q {
		e.answers[qk] = cachedAnswer{leftEpoch: qs.LeftEpoch, rightEpoch: qs.RightEpoch, ans: ans}
	}
	e.mu.Unlock()
	return ans, nil
}

// QuerySnapshot is a quiesce-consistent view of one query's synopsis
// pair, cloned out of the engine for shipping: the slim, query-side
// state a cluster shard exports to the merger tier (SF-sketch's
// fat/slim split — the fat update-side synopsis stays here, the slim
// linear summary travels). Because sketches are linear, merging the
// Left (resp. Right) snapshots of the same query from every shard
// yields exactly the synopsis a single node would have maintained over
// the union of their streams.
type QuerySnapshot struct {
	Query  string
	Agg    Aggregate
	Domain uint64
	// Left and Right are private clones; mutating them never touches the
	// live synopses.
	Left, Right *core.HashSketch
	// LeftEpoch/RightEpoch are the synopses' update epochs at snapshot
	// time — a cheap staleness token for pullers (an unchanged epoch pair
	// means an unchanged answer).
	LeftEpoch, RightEpoch uint64
}

// QuerySketches snapshots a query's two synopsis sketches. Like Answer
// it drains the ingestion pipeline first and holds the quiesce lock only
// for the clone, so a slow puller never stalls ingestion. Windowed sides
// are rolled up via the window's Combined sketch.
func (t *Tenant) QuerySketches(name string) (QuerySnapshot, error) {
	qs, _, err := t.cut(name, nil)
	return qs, err
}

// cut looks up the tenant's query and, under the quiesce, captures its
// synopses' epochs and clones both sides; the quiesce is held for the
// copy only. A non-nil reuse sees the epochs first, under the same
// quiesce: when it returns true the clones are skipped (Answer's cache
// hit), and Left and Right stay nil.
func (t *Tenant) cut(name string, reuse func(QuerySnapshot) bool) (QuerySnapshot, *queryState, error) {
	e := t.e
	defer e.readQuiesce()()
	q, ok := e.queries[nsKey{t.name, name}]
	if !ok {
		return QuerySnapshot{}, nil, fmt.Errorf("engine: %w %q", ErrUnknownQuery, name)
	}
	qs := QuerySnapshot{
		Query:      name,
		Agg:        q.spec.Agg,
		Domain:     q.domain,
		LeftEpoch:  q.left.epoch,
		RightEpoch: q.right.epoch,
	}
	if reuse == nil || !reuse(qs) {
		qs.Left, qs.Right = q.left.snapshot(), q.right.snapshot()
	}
	return qs, q, nil
}

// Stats summarizes the engine state across every tenant.
type Stats struct {
	Streams      int
	Queries      int
	Synopses     int
	SynopsisRefs int // total query-side references; > Synopses means sharing
	TotalWords   int
	// UpdateCounts is keyed by bare stream name for the default tenant
	// (unchanged from the single-tenant engine) and by "tenant/stream"
	// for every other tenant. Neither tenant nor stream names may contain
	// '/', so the two spellings never collide.
	UpdateCounts map[string]int64
	// QueryWorkers is the configured estimation parallelism (Options).
	QueryWorkers int
	// AnswerCacheHits/Misses count Answer calls served from the epoch-
	// keyed answer cache versus freshly estimated, summed over tenants.
	AnswerCacheHits   int64
	AnswerCacheMisses int64
	// Watches is the number of standing watches across all tenants.
	Watches int
	// Tenants breaks the same figures down per tenant namespace.
	Tenants map[string]TenantStats
	// Ingest is the pipeline's counters, read under the same quiesce as
	// every figure above: enqueued == applied + unrouted, and every
	// tenant's PendingUpdates is zero.
	Ingest monitor.IngestSnapshot
}

// Stats reports synopsis sharing and memory usage: the sum of every
// tenant's TenantStats. Like Tenant.Answer, it drains the ingestion
// pipeline first.
func (e *Engine) Stats() Stats {
	defer e.readQuiesce()()
	st := Stats{
		UpdateCounts: make(map[string]int64, len(e.streams)),
		QueryWorkers: e.queryWorkers,
		Tenants:      make(map[string]TenantStats, len(e.tenants)),
		Ingest:       e.metrics.Snapshot(),
	}
	for name := range e.tenants {
		ts := e.tenantStatsLocked(name)
		st.Tenants[name] = ts
		st.Streams += ts.Streams
		st.Queries += ts.Queries
		st.Synopses += ts.Synopses
		st.SynopsisRefs += ts.SynopsisRefs
		st.TotalWords += ts.TotalWords
		st.AnswerCacheHits += ts.AnswerCacheHits
		st.AnswerCacheMisses += ts.AnswerCacheMisses
		st.Watches += ts.Watches
		for s, n := range ts.UpdateCounts {
			if name != DefaultTenant {
				s = name + "/" + s
			}
			st.UpdateCounts[s] = n
		}
	}
	return st
}
