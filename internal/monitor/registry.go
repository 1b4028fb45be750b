package monitor

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a tenant-keyed collection of standing threshold watches.
// A watch owns only its hysteresis state: the estimate is produced
// elsewhere (the engine's epoch-keyed answer cache, so an unchanged
// query costs no re-estimation) and fed in via Observe. Keys are (tenant, query), so thousands of small tenants
// registering identical query names never share alert state.
type Registry struct {
	mu      sync.Mutex
	watches map[WatchKey]*watchEntry
}

// WatchKey identifies one standing watch: the owning tenant namespace
// and the query name inside it.
type WatchKey struct {
	Tenant string
	Query  string
}

// WatchConfig tunes one watch's hysteresis band. High raises the alert
// when the estimate reaches it; Low clears it when the estimate falls to
// it or below (Low <= High).
type WatchConfig struct {
	High int64 `json:"high"`
	Low  int64 `json:"low"`
}

func (c WatchConfig) validate() error {
	if c.Low > c.High {
		return fmt.Errorf("monitor: Low watermark %d above High %d", c.Low, c.High)
	}
	return nil
}

// WatchStatus is the externally visible state of one watch.
type WatchStatus struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query"`
	High   int64  `json:"high"`
	Low    int64  `json:"low"`
	// State is the current alert state after the last Observe.
	State State `json:"-"`
	// Evaluations counts Observe calls; Transitions counts state flips.
	Evaluations int64 `json:"evaluations"`
	Transitions int64 `json:"transitions"`
	// LastEstimate is the estimate from the most recent Observe (0 until
	// the first evaluation; Evaluations disambiguates).
	LastEstimate int64 `json:"lastEstimate"`
}

type watchEntry struct {
	cfg    WatchConfig
	status WatchStatus
}

// NewRegistry returns an empty watch registry.
func NewRegistry() *Registry {
	return &Registry{watches: make(map[WatchKey]*watchEntry)}
}

// Register installs a watch. Registering an existing key is an error;
// remove first to re-arm with new watermarks.
func (r *Registry) Register(key WatchKey, cfg WatchConfig) error {
	return r.Restore(key, cfg, Normal)
}

// Restore installs a watch with an explicit starting state — the
// checkpoint-restore path, so an alert raised before a restart does not
// silently reset to normal (and re-fire its raise transition) after it.
func (r *Registry) Restore(key WatchKey, cfg WatchConfig, state State) error {
	if key.Tenant == "" || key.Query == "" {
		return fmt.Errorf("monitor: watch key needs tenant and query, got %+v", key)
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	if state != Normal && state != Alert {
		return fmt.Errorf("monitor: unknown watch state %d", int(state))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.watches[key]; ok {
		return fmt.Errorf("monitor: watch %s/%s already registered", key.Tenant, key.Query)
	}
	r.watches[key] = &watchEntry{cfg: cfg, status: WatchStatus{
		Tenant: key.Tenant, Query: key.Query,
		High: cfg.High, Low: cfg.Low, State: state,
	}}
	return nil
}

// Remove deletes a watch, reporting whether it existed.
func (r *Registry) Remove(key WatchKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.watches[key]
	delete(r.watches, key)
	return ok
}

// Observe feeds one fresh estimate into a watch's state machine and
// returns the resulting status plus whether this observation flipped the
// alert state.
func (r *Registry) Observe(key WatchKey, estimate int64) (WatchStatus, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.watches[key]
	if !ok {
		return WatchStatus{}, false, fmt.Errorf("monitor: unknown watch %s/%s", key.Tenant, key.Query)
	}
	next := w.status.State
	switch w.status.State {
	case Normal:
		if estimate >= w.cfg.High {
			next = Alert
		}
	case Alert:
		if estimate <= w.cfg.Low {
			next = Normal
		}
	}
	transition := next != w.status.State
	w.status.State = next
	w.status.Evaluations++
	w.status.LastEstimate = estimate
	if transition {
		w.status.Transitions++
	}
	return w.status, transition, nil
}

// Evaluate answers every watch of tenant ("" = every tenant) with
// answer and feeds the estimates through the alert state machines,
// returning the resulting statuses sorted by (tenant, query). The
// registry owns only hysteresis state; answer decides what the estimate
// is — a node's answer cache, or a cluster merger's global merge of its
// shards' synopses.
//
// A watch removed concurrently (its query was deleted) is skipped; an
// answer failure for a watch that still exists is returned, with the
// statuses evaluated before it.
func (r *Registry) Evaluate(tenant string, answer func(tenant, query string) (int64, error)) ([]WatchStatus, error) {
	tenants := []string{tenant}
	if tenant == "" {
		tenants = r.Tenants()
	}
	var out []WatchStatus
	for _, tn := range tenants {
		for _, w := range r.List(tn) {
			key := WatchKey{Tenant: tn, Query: w.Query}
			est, err := answer(tn, w.Query)
			if err != nil {
				if _, ok := r.Get(key); !ok {
					continue
				}
				return out, fmt.Errorf("monitor: watch %s/%s: %w", tn, w.Query, err)
			}
			if st, _, err := r.Observe(key, est); err == nil {
				out = append(out, st)
			}
		}
	}
	return out, nil
}

// Get returns one watch's status and whether it exists.
func (r *Registry) Get(key WatchKey) (WatchStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.watches[key]
	if !ok {
		return WatchStatus{}, false
	}
	return w.status, true
}

// List returns the watches of one tenant, sorted by query name.
func (r *Registry) List(tenant string) []WatchStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []WatchStatus
	for key, w := range r.watches {
		if key.Tenant == tenant {
			out = append(out, w.status)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}

// Tenants returns every tenant with at least one watch, sorted.
func (r *Registry) Tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	for key := range r.watches {
		seen[key.Tenant] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of registered watches.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.watches)
}
