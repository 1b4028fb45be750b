package engine

import (
	"fmt"

	"skimsketch/internal/monitor"
)

// Standing watches: per-tenant threshold alerts over registered queries
// ("alert when the estimated join size crosses High; clear when it falls
// back to Low"). The alert state machines live in a tenant-keyed
// monitor.Registry, so two tenants watching identically named queries
// never share state. Evaluation goes through Answer and therefore
// through the epoch-keyed answer cache: a tick over thousands of watches
// whose synopses have not changed costs thousands of cache hits, not
// thousands of O(domain) estimations — the incremental evaluation the
// cache was built for.

func watchKey(tenant, query string) monitor.WatchKey {
	return monitor.WatchKey{Tenant: tenant, Query: query}
}

// RegisterWatch installs a standing watch with band cfg on one of the
// tenant's registered queries. Removing the query removes the watch.
func (t *Tenant) RegisterWatch(query string, cfg monitor.WatchConfig) error {
	if err := validTenantName(t.name); err != nil {
		return err
	}
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.queries[nsKey{t.name, query}]; !ok {
		return fmt.Errorf("engine: watch: %w %q", ErrUnknownQuery, query)
	}
	return e.watches.Register(watchKey(t.name, query), cfg)
}

// Watches returns the engine's standing-watch registry, for serving
// layers that list, remove and evaluate watches across tenants; an
// evaluation answers each watched query through Tenant.Answer.
// Registration goes through Tenant.RegisterWatch, which checks the
// query exists.
func (e *Engine) Watches() *monitor.Registry { return e.watches }
