package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// DefaultTenant is the namespace of a single-tenant deployment: sketchd's
// unscoped HTTP paths and version-1 snapshots use it.
const DefaultTenant = "default"

// ErrQuotaExceeded is wrapped by every quota rejection — synopsis memory
// at query registration, queue share at ingest admission — so callers
// can map the whole family to one wire status (sketchd answers 429).
var ErrQuotaExceeded = errors.New("tenant quota exceeded")

// ErrUnknownQuery is wrapped by every error that names a query the
// tenant has not registered, so callers can tell "not found" from a
// failure (sketchd answers 404 for it, and 500 for any other error).
var ErrUnknownQuery = errors.New("unknown query")

// Quota bounds one tenant's resource consumption. Zero fields are
// unlimited.
type Quota struct {
	// MaxSynopsisWords caps the total word footprint of the tenant's
	// synopses, charged at synopsis creation (RegisterQuery) and refunded
	// when the last referencing query is removed.
	MaxSynopsisWords int `json:"maxSynopsisWords,omitempty"`
	// MaxPendingUpdates caps the tenant's share of the ingest pipeline's
	// queues: updates accepted by IngestBatch but not yet folded into
	// synopses. Admission of a batch that would push the tenant past the
	// cap is rejected with ErrQuotaExceeded instead of blocking, so one
	// flooding tenant cannot monopolize the shared queue space.
	MaxPendingUpdates int64 `json:"maxPendingUpdates,omitempty"`
}

func (q Quota) validate() error {
	if q.MaxSynopsisWords < 0 || q.MaxPendingUpdates < 0 {
		return fmt.Errorf("quota fields must be non-negative, got %+v", q)
	}
	return nil
}

// tenantState is the per-tenant accounting record: quota, synopsis-word
// usage, pending queue share, and counters. words and the cache counters
// are guarded by e.mu; pending and rejected are atomics because shard
// workers decrement pending outside every engine lock.
type tenantState struct {
	quota                  Quota
	words                  int // synopsis words charged (e.mu)
	pending                atomic.Int64
	rejected               atomic.Int64
	cacheHits, cacheMisses int64 // e.mu
}

// ValidTenantName reports whether name is usable as a tenant namespace;
// the HTTP layer uses it to refuse unroutable names before touching the
// engine (mutating engine paths validate again themselves).
func ValidTenantName(name string) error { return validTenantName(name) }

// validTenantName rejects names the wire routing cannot represent.
func validTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("engine: tenant name must be non-empty")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("engine: tenant name %q must not contain '/' or whitespace", name)
	}
	return nil
}

// validStream rejects a stream DeclareStream or Restore would install
// but no update could reach: an empty domain, or a name that would
// collide in Stats.UpdateCounts, where "tenant/stream" names every
// non-default tenant's stream.
func validStream(name string, domain uint64) error {
	if name == "" {
		return fmt.Errorf("engine: stream name must be non-empty")
	}
	if strings.Contains(name, "/") {
		return fmt.Errorf("engine: stream name %q must not contain '/'", name)
	}
	if domain == 0 {
		return fmt.Errorf("engine: stream %q: domain must be positive", name)
	}
	return nil
}

// tenantLocked returns (creating if absent) the tenant's state record.
// Callers hold e.mu and have validated the name on every creation path.
func (e *Engine) tenantLocked(name string) *tenantState {
	ts, ok := e.tenants[name]
	if !ok {
		ts = &tenantState{quota: e.defaultQuota}
		e.tenants[name] = ts
	}
	return ts
}

// SetQuota installs (or replaces) a tenant's quota. Lowering a quota
// below current usage is allowed: existing state stays, further growth
// is rejected.
func (e *Engine) SetQuota(tenant string, q Quota) error {
	if err := validTenantName(tenant); err != nil {
		return err
	}
	if err := q.validate(); err != nil {
		return fmt.Errorf("engine: tenant %q: %w", tenant, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tenantLocked(tenant).quota = q
	return nil
}

// TenantStats is the per-tenant slice of Stats plus the tenant's quota
// and quota-relevant gauges.
type TenantStats struct {
	Tenant       string
	Streams      int
	Queries      int
	Synopses     int
	SynopsisRefs int
	TotalWords   int
	// UpdateCounts is keyed by the tenant's bare stream names.
	UpdateCounts map[string]int64
	// PendingUpdates is the tenant's current ingest queue share (accepted
	// but not yet applied); Rejected counts updates refused under
	// ErrQuotaExceeded.
	PendingUpdates    int64
	Rejected          int64
	AnswerCacheHits   int64
	AnswerCacheMisses int64
	Watches           int
	Quota             Quota
}

// tenantStatsLocked assembles one tenant's stats. Callers hold the
// quiesced read locks (readQuiesce), so counters are consistent.
func (e *Engine) tenantStatsLocked(tenant string) TenantStats {
	st := TenantStats{
		Tenant:       tenant,
		UpdateCounts: make(map[string]int64),
		Watches:      len(e.watches.List(tenant)),
	}
	if ts, ok := e.tenants[tenant]; ok {
		st.PendingUpdates = ts.pending.Load()
		st.Rejected = ts.rejected.Load()
		st.AnswerCacheHits = ts.cacheHits
		st.AnswerCacheMisses = ts.cacheMisses
		st.Quota = ts.quota
		st.TotalWords = ts.words
	}
	for key, info := range e.streams {
		if key.tenant == tenant {
			st.Streams++
			st.UpdateCounts[key.name] = info.count
		}
	}
	for key := range e.queries {
		if key.tenant == tenant {
			st.Queries++
		}
	}
	for _, entry := range e.synopses {
		if entry.key.tenant == tenant {
			st.Synopses++
			st.SynopsisRefs += entry.refs
		}
	}
	return st
}

// Tenant returns a handle scoped to one tenant namespace. The handle is
// cheap (no state is created until a mutating call) and safe to share.
func (e *Engine) Tenant(name string) *Tenant {
	return &Tenant{e: e, name: name}
}

// Tenant is the engine's scoped API: every method reads or changes only
// the tenant's streams, predicates, queries, watches and answer cache.
type Tenant struct {
	e    *Engine
	name string
}

// DeclareStream registers a stream name with its value domain
// [0, domain) in this tenant. The name must be non-empty and free of
// '/', which Stats.UpdateCounts uses to join tenant and stream.
func (t *Tenant) DeclareStream(name string, domain uint64) error {
	if err := validTenantName(t.name); err != nil {
		return err
	}
	if err := validStream(name, domain); err != nil {
		return err
	}
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	key := nsKey{t.name, name}
	if _, ok := e.streams[key]; ok {
		return fmt.Errorf("engine: stream %q already declared", name)
	}
	e.tenantLocked(t.name)
	e.streams[key] = &streamInfo{domain: domain}
	return nil
}

// RegisterPredicate names a value-range predicate for use in this
// tenant's query sides. Re-registering the same range under the same
// name is a no-op, so a replayed registration is harmless; another
// range under a registered name is refused.
func (t *Tenant) RegisterPredicate(name string, p Predicate) error {
	if err := validTenantName(t.name); err != nil {
		return err
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return t.e.putPredicateLocked(t.name, name, p)
}

// putPredicateLocked installs p under the tenant's name, for
// RegisterPredicate and Restore alike. It refuses an empty name, an
// empty range, and another range under a registered name. Callers hold
// e.mu.
func (e *Engine) putPredicateLocked(tenant, name string, p Predicate) error {
	if name == "" {
		return fmt.Errorf("engine: predicate name must be non-empty")
	}
	if p.Max < p.Min {
		return fmt.Errorf("engine: predicate %q: max %d below min %d", name, p.Max, p.Min)
	}
	key := nsKey{tenant, name}
	if old, ok := e.predicates[key]; ok && old != p {
		return fmt.Errorf("engine: predicate %q already registered with range [%d,%d]", name, old.Min, old.Max)
	}
	e.tenantLocked(tenant)
	e.predicates[key] = p
	return nil
}

// RegisterQuery installs a continuous query in this tenant. A fresh
// synopsis pair is charged against the tenant's memory quota; rejection
// wraps ErrQuotaExceeded.
func (t *Tenant) RegisterQuery(spec QuerySpec) error {
	if err := validTenantName(t.name); err != nil {
		return err
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return t.e.registerLocked(t.name, spec)
}

// RemoveQuery deregisters a query, releasing (and possibly freeing) its
// synopses and dropping any standing watch on it.
func (t *Tenant) RemoveQuery(name string) error {
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	qk := nsKey{t.name, name}
	q, ok := e.queries[qk]
	if !ok {
		return fmt.Errorf("engine: %w %q", ErrUnknownQuery, name)
	}
	e.release(q.left)
	e.release(q.right)
	delete(e.queries, qk)
	delete(e.answers, qk)
	e.watches.Remove(watchKey(t.name, name))
	return nil
}

// Stats reports this tenant's registry sizes, counters and quota.
// Like Engine.Stats it drains the ingestion pipeline first.
func (t *Tenant) Stats() TenantStats {
	defer t.e.readQuiesce()()
	return t.e.tenantStatsLocked(t.name)
}

// Queries returns the tenant's registered query names, sorted.
func (t *Tenant) Queries() []string {
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	var names []string
	for key := range e.queries {
		if key.tenant == t.name {
			names = append(names, key.name)
		}
	}
	sort.Strings(names)
	if names == nil {
		names = []string{}
	}
	return names
}

// Streams returns the tenant's declared stream names, sorted.
func (t *Tenant) Streams() []string {
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	var names []string
	for key := range e.streams {
		if key.tenant == t.name {
			names = append(names, key.name)
		}
	}
	sort.Strings(names)
	if names == nil {
		names = []string{}
	}
	return names
}
