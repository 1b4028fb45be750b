package engine

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"skimsketch/internal/core"
	"skimsketch/internal/monitor"
	"skimsketch/internal/window"
)

// Snapshot/Restore persist the engine — declared streams, registered
// predicates and queries, standing watches, tenant quotas, and every
// synopsis' counters — so a stream processor can restart without losing
// its summaries. The container is JSON (sketch blobs are base64-encoded
// by encoding/json); the sketch payloads are the same binary formats
// used everywhere else.
//
// Two snapshot versions exist. Version 1 is the pre-tenant layout: one
// flat set of streams/queries/synopses. Version 2 nests one such slice
// per tenant namespace plus quotas and watches. Snapshot writes version
// 1 whenever the engine state is expressible in it (only the default
// tenant, no quotas, no watches) so single-tenant deployments keep
// byte-identical snapshots across the multi-tenant refactor; Restore
// accepts both, loading a version-1 snapshot into the default tenant
// bit-identically.
//
// A snapshot carries every registered predicate, so it restores into a
// fresh engine on its own. A snapshot written before predicates were
// carried restores once the predicates its queries name are registered.

const (
	snapshotVersionV1 = 1
	snapshotVersionV2 = 2
)

type streamSnap struct {
	Domain uint64 `json:"domain"`
	Count  int64  `json:"count"`
}

// querySnap keeps the aggregate as its number, the version-1 encoding.
type querySnap struct {
	Name  string `json:"name"`
	Agg   int    `json:"agg"`
	Left  Side   `json:"left"`
	Right Side   `json:"right"`
}

// synSnap is one synopsis: its side's fields, then its config, which is
// always the snapshot's defaults, and its counters.
type synSnap struct {
	Side
	Config core.Config `json:"config"`
	Blob   []byte      `json:"blob"`
}

type watchSnap struct {
	Query string `json:"query"`
	monitor.WatchConfig
	Alert bool `json:"alert,omitempty"`
}

// tenantSnap is one tenant's slice of a version-2 snapshot — exactly the
// fields a version-1 snapshot holds at its top level, plus the quota and
// the standing watches.
type tenantSnap struct {
	Quota      Quota                 `json:"quota"`
	Streams    map[string]streamSnap `json:"streams"`
	Predicates map[string]Predicate  `json:"predicates,omitempty"`
	Queries    []querySnap           `json:"queries,omitempty"`
	Synopses   []synSnap             `json:"synopses,omitempty"`
	Watches    []watchSnap           `json:"watches,omitempty"`
}

type snapshot struct {
	Version  int         `json:"version"`
	Defaults core.Config `json:"defaults"`
	// Version-1 (single-tenant) body: the default tenant's slice.
	Streams    map[string]streamSnap `json:"streams,omitempty"`
	Predicates map[string]Predicate  `json:"predicates,omitempty"`
	Queries    []querySnap           `json:"queries,omitempty"`
	Synopses   []synSnap             `json:"synopses,omitempty"`
	// Version-2 body: one slice per tenant namespace.
	DefaultQuota *Quota                `json:"defaultQuota,omitempty"`
	Tenants      map[string]tenantSnap `json:"tenants,omitempty"`
}

// v1Snapshot lays one tenant's slice out as a version-1 snapshot; the
// slice's quota and watches have no place in it.
func v1Snapshot(defaults core.Config, slice tenantSnap) *snapshot {
	return &snapshot{
		Version:    snapshotVersionV1,
		Defaults:   defaults,
		Streams:    slice.Streams,
		Predicates: slice.Predicates,
		Queries:    slice.Queries,
		Synopses:   slice.Synopses,
	}
}

// v1Slice is the tenant slice a version-1 snapshot holds.
func (s *snapshot) v1Slice() tenantSnap {
	return tenantSnap{Streams: s.Streams, Predicates: s.Predicates, Queries: s.Queries, Synopses: s.Synopses}
}

// v1ExpressibleLocked reports whether the engine state round-trips
// through the version-1 (pre-tenant) snapshot layout: only the default
// tenant exists, with no quota and no watches. Callers hold e.mu.
func (e *Engine) v1ExpressibleLocked() bool {
	if e.defaultQuota != (Quota{}) || e.watches.Len() != 0 {
		return false
	}
	// Every stream, predicate and query has its tenant's record.
	for name, ts := range e.tenants {
		if name != DefaultTenant || ts.quota != (Quota{}) {
			return false
		}
	}
	return true
}

// tenantSliceLocked assembles one tenant's streams/predicates/queries/
// synopses/watches, queries by name and synopses by key, so equal
// engines write equal bytes. Callers hold the quiesced read locks.
func (e *Engine) tenantSliceLocked(tenant string) (tenantSnap, error) {
	slice := tenantSnap{Streams: make(map[string]streamSnap), Predicates: make(map[string]Predicate)}
	if ts, ok := e.tenants[tenant]; ok {
		slice.Quota = ts.quota
	}
	for key, info := range e.streams {
		if key.tenant == tenant {
			slice.Streams[key.name] = streamSnap{Domain: info.domain, Count: info.count}
		}
	}
	for key, p := range e.predicates {
		if key.tenant == tenant {
			slice.Predicates[key.name] = p
		}
	}
	for key, q := range e.queries {
		if key.tenant != tenant {
			continue
		}
		slice.Queries = append(slice.Queries, querySnap{
			Name: key.name, Agg: int(q.spec.Agg), Left: q.spec.Left, Right: q.spec.Right,
		})
	}
	sort.Slice(slice.Queries, func(i, j int) bool { return slice.Queries[i].Name < slice.Queries[j].Name })
	for key, entry := range e.synopses {
		if key.tenant != tenant {
			continue
		}
		var blob []byte
		var err error
		if entry.win != nil {
			blob, err = entry.win.MarshalBinary()
		} else {
			blob, err = entry.sketch.MarshalBinary()
		}
		if err != nil {
			return tenantSnap{}, fmt.Errorf("engine: snapshot: %w", err)
		}
		slice.Synopses = append(slice.Synopses, synSnap{Side: key.Side, Config: e.defaults, Blob: blob})
	}
	slices.SortFunc(slice.Synopses, func(a, b synSnap) int {
		return cmp.Or(
			cmp.Compare(a.Stream, b.Stream),
			cmp.Compare(a.Predicate, b.Predicate),
			cmp.Compare(a.WindowLen, b.WindowLen),
			cmp.Compare(a.WindowBuckets, b.WindowBuckets),
		)
	})
	for _, w := range e.watches.List(tenant) {
		slice.Watches = append(slice.Watches, watchSnap{
			Query: w.Query, WatchConfig: monitor.WatchConfig{High: w.High, Low: w.Low}, Alert: w.State == monitor.Alert,
		})
	}
	return slice, nil
}

// Snapshot writes the engine state to w. With the ingestion pipeline
// running, the pipeline is drained and held quiescent for the duration of
// the write, so the snapshot observes every enqueued batch applied in
// full — never a batch applied to one synopsis but not another.
//
// The output is the version-1 layout when the state is expressible in it
// (single default tenant, no quotas or watches) and version 2 otherwise.
func (e *Engine) Snapshot(w io.Writer) error {
	defer e.readQuiesce()()

	if e.v1ExpressibleLocked() {
		slice, err := e.tenantSliceLocked(DefaultTenant)
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(v1Snapshot(e.defaults, slice))
	}

	snap := snapshot{
		Version:  snapshotVersionV2,
		Defaults: e.defaults,
		Tenants:  make(map[string]tenantSnap),
	}
	if e.defaultQuota != (Quota{}) {
		q := e.defaultQuota
		snap.DefaultQuota = &q
	}
	for tenant := range e.tenants {
		slice, err := e.tenantSliceLocked(tenant)
		if err != nil {
			return err
		}
		snap.Tenants[tenant] = slice
	}
	return json.NewEncoder(w).Encode(&snap)
}

// Snapshot writes this tenant's slice of the engine — its streams,
// predicates, queries, synopsis counters and watches — as a version-1
// (tenant-free) snapshot, restorable into any empty tenant via
// Tenant.Restore.
func (t *Tenant) Snapshot(w io.Writer) error {
	e := t.e
	defer e.readQuiesce()()
	slice, err := e.tenantSliceLocked(t.name)
	if err != nil {
		return err
	}
	if len(slice.Watches) != 0 {
		return fmt.Errorf("engine: snapshot: tenant %q has standing watches, which the single-tenant layout cannot carry; snapshot the whole engine instead", t.name)
	}
	return json.NewEncoder(w).Encode(v1Snapshot(e.defaults, slice))
}

// Restore loads a snapshot into e, which must have no streams or queries
// in any tenant yet. Predicates may be registered already: a carried
// predicate must then have the registered range, and a query may name a
// registered predicate the snapshot does not carry. A version-1
// snapshot restores into the default tenant bit-identically; a
// version-2 snapshot restores every tenant slice, quotas and watches
// included. On success the engine answers queries
// exactly as the snapshotted engine did; on failure it is unchanged.
func (e *Engine) Restore(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}

	if err := snap.Defaults.Validate(); err != nil {
		return fmt.Errorf("engine: restore: default sketch config: %w", err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.streams) != 0 || len(e.queries) != 0 {
		return fmt.Errorf("engine: restore requires an empty engine (no streams or queries)")
	}
	st := e.stageLocked(snap.Defaults)
	switch snap.Version {
	case snapshotVersionV1:
		if err := st.restoreTenantLocked(DefaultTenant, snap.v1Slice()); err != nil {
			return err
		}
	case snapshotVersionV2:
		if snap.DefaultQuota != nil {
			if err := snap.DefaultQuota.validate(); err != nil {
				return fmt.Errorf("engine: restore: default quota: %w", err)
			}
			st.defaultQuota = *snap.DefaultQuota
		}
		tenants := make([]string, 0, len(snap.Tenants))
		for tenant := range snap.Tenants {
			tenants = append(tenants, tenant)
		}
		sort.Strings(tenants)
		for _, tenant := range tenants {
			if err := validTenantName(tenant); err != nil {
				return fmt.Errorf("engine: restore: %w", err)
			}
			if err := st.restoreTenantLocked(tenant, snap.Tenants[tenant]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("engine: restore: unsupported snapshot version %d", snap.Version)
	}
	// Restored synopses restart at epoch 0: any answers cached before the
	// restore would collide with the fresh epochs, so drop them all.
	e.answers = make(map[nsKey]cachedAnswer)
	e.commitLocked(st)
	return nil
}

// Restore loads a version-1 (single-tenant layout) snapshot into this
// tenant, which must be empty. The snapshot's default sketch config must
// match the engine's, since every synopsis is rebuilt from the engine's.
// On failure the engine is unchanged.
func (t *Tenant) Restore(r io.Reader) error {
	if err := validTenantName(t.name); err != nil {
		return err
	}
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("engine: restore: %w", err)
	}
	if snap.Version != snapshotVersionV1 {
		return fmt.Errorf("engine: restore: tenant restore accepts single-tenant (version 1) snapshots, got version %d; POST whole-engine snapshots to the unscoped restore", snap.Version)
	}
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if snap.Defaults != e.defaults {
		return fmt.Errorf("engine: restore: snapshot default sketch config %+v differs from engine's %+v", snap.Defaults, e.defaults)
	}
	for key := range e.streams {
		if key.tenant == t.name {
			return fmt.Errorf("engine: restore requires an empty tenant %q (no streams or queries)", t.name)
		}
	}
	for key := range e.queries {
		if key.tenant == t.name {
			return fmt.Errorf("engine: restore requires an empty tenant %q (no streams or queries)", t.name)
		}
	}
	st := e.stageLocked(e.defaults)
	if err := st.restoreTenantLocked(t.name, snap.v1Slice()); err != nil {
		return err
	}
	for key := range e.answers {
		if key.tenant == t.name {
			delete(e.answers, key)
		}
	}
	e.commitLocked(st)
	return nil
}

// stageLocked returns a private engine for a restore to build into, so
// a snapshot that fails part-way leaves e untouched. It copies e's
// predicates, tenant quotas, word charges and synopsis numbering, so
// every check runs exactly as it would against e itself.
// Callers hold e.mu.
func (e *Engine) stageLocked(defaults core.Config) *Engine {
	st := &Engine{
		defaults:     defaults,
		defaultQuota: e.defaultQuota,
		tenants:      make(map[string]*tenantState, len(e.tenants)),
		streams:      make(map[nsKey]*streamInfo),
		predicates:   maps.Clone(e.predicates),
		synopses:     make(map[synKey]*synEntry),
		queries:      make(map[nsKey]*queryState),
		nextSynID:    e.nextSynID,
		watches:      monitor.NewRegistry(),
	}
	for name, ts := range e.tenants {
		st.tenants[name] = &tenantState{quota: ts.quota, words: ts.words}
	}
	return st
}

// commitLocked publishes a restore staged in st. It cannot fail: every
// check already ran against st, and the tenants it restored had no
// queries, so no watch of theirs is registered yet. Callers hold e.mu.
func (e *Engine) commitLocked(st *Engine) {
	e.defaults, e.defaultQuota, e.nextSynID = st.defaults, st.defaultQuota, st.nextSynID
	e.predicates = st.predicates
	for name, staged := range st.tenants {
		ts := e.tenantLocked(name)
		ts.quota, ts.words = staged.quota, staged.words
	}
	maps.Copy(e.streams, st.streams)
	maps.Copy(e.queries, st.queries)
	maps.Copy(e.synopses, st.synopses)
	for _, tenant := range st.watches.Tenants() {
		for _, w := range st.watches.List(tenant) {
			_ = e.watches.Restore(watchKey(tenant, w.Query), monitor.WatchConfig{High: w.High, Low: w.Low}, w.State)
		}
	}
	e.routes = nil
}

// restoreTenantLocked loads one tenant slice. Everything the slice
// names is checked before any synopsis is allocated: the quota, the
// streams (as DeclareStream checks them), the predicates (installed as
// RegisterPredicate installs them), that every synopsis has the
// defaults' config, the synopsis blobs, and that the slice carries every
// query side's synopsis, so a small body cannot allocate a large
// synopsis it does not carry. Then the quota is installed (so rebuilding
// synopses is charged against it), the queries are re-registered, their
// synopses overwritten from the blobs, and the watches re-armed. It runs
// on a staged engine (stageLocked) while the caller holds the live
// engine's mu.
func (e *Engine) restoreTenantLocked(tenant string, slice tenantSnap) error {
	if err := slice.Quota.validate(); err != nil {
		return fmt.Errorf("engine: restore: tenant %q quota: %w", tenant, err)
	}
	for name, s := range slice.Streams {
		if err := validStream(name, s.Domain); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
		if s.Count < 0 {
			return fmt.Errorf("engine: restore: stream %q: negative update count %d", name, s.Count)
		}
	}
	for name, p := range slice.Predicates {
		if err := e.putPredicateLocked(tenant, name, p); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
	}
	carried := make(map[synKey]any, len(slice.Synopses)) // *window.Window or *core.HashSketch
	for _, s := range slice.Synopses {
		key := synKey{tenant, s.Side}
		if s.Config != e.defaults {
			return fmt.Errorf("engine: restore: synopsis %+v: config %+v differs from the defaults %+v", key, s.Config, e.defaults)
		}
		if s.WindowLen > 0 {
			w := new(window.Window)
			if err := w.UnmarshalBinary(s.Blob); err != nil {
				return fmt.Errorf("engine: restore: %w", err)
			}
			if !w.Fits(s.WindowLen, s.WindowBuckets, s.Config) {
				return fmt.Errorf("engine: restore: synopsis %+v: window blob has another shape", key)
			}
			carried[key] = w
		} else {
			sk := new(core.HashSketch)
			if err := sk.UnmarshalBinary(s.Blob); err != nil {
				return fmt.Errorf("engine: restore: %w", err)
			}
			if sk.Config() != s.Config {
				return fmt.Errorf("engine: restore: synopsis %+v: sketch blob has config %+v", key, sk.Config())
			}
			carried[key] = sk
		}
	}
	for _, q := range slice.Queries {
		for _, side := range []Side{q.Left, q.Right} {
			if side.Predicate != "" {
				if _, ok := e.predicates[nsKey{tenant, side.Predicate}]; !ok {
					return fmt.Errorf("engine: restore: predicate %q is neither carried nor registered", side.Predicate)
				}
			}
			key := synKey{tenant, side}
			if _, ok := carried[key]; !ok {
				return fmt.Errorf("engine: restore: query %q: snapshot carries no synopsis %+v", q.Name, key)
			}
		}
	}

	if ts := e.tenantLocked(tenant); slice.Quota != (Quota{}) {
		ts.quota = slice.Quota
	}
	for name, s := range slice.Streams {
		e.streams[nsKey{tenant, name}] = &streamInfo{domain: s.Domain, count: s.Count}
	}
	// Re-register the queries, rebuilding (empty) shared synopses...
	for _, q := range slice.Queries {
		spec := QuerySpec{Name: q.Name, Agg: Aggregate(q.Agg), Left: q.Left, Right: q.Right}
		if err := e.registerLocked(tenant, spec); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
	}
	// ...then overwrite each synopsis' state from its blob.
	for key, syn := range carried {
		entry, ok := e.synopses[key]
		if !ok {
			return fmt.Errorf("engine: restore: snapshot synopsis %+v matches no restored query side", key)
		}
		if w, ok := syn.(*window.Window); ok {
			*entry.win = *w
		} else {
			*entry.sketch = *syn.(*core.HashSketch)
		}
	}
	// ...and re-arm the standing watches with their checkpointed state.
	for _, w := range slice.Watches {
		state := monitor.Normal
		if w.Alert {
			state = monitor.Alert
		}
		if _, ok := e.queries[nsKey{tenant, w.Query}]; !ok {
			return fmt.Errorf("engine: restore: watch on unknown query %q", w.Query)
		}
		if err := e.watches.Restore(watchKey(tenant, w.Query), w.WatchConfig, state); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
	}
	return nil
}
