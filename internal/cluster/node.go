package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"skimsketch/internal/engine"
	"skimsketch/internal/monitor"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// Node is the serving backend over one in-process engine: the single
// and shard roles. Beyond the engine it keeps one thing the engine
// cannot: the (clientID, seq) dedupe window shared by HTTP
// Idempotency-Keys and SKSP frames.
type Node struct {
	eng *engine.Engine
	// dedupe answers a replayed (clientID, seq) — a client that lost a
	// response retries under the same identity — without re-applying.
	dedupe *wire.Window
}

// NewNode wraps eng. The caller owns eng's lifecycle: restore a
// checkpoint into it, then StartIngest before serving (ingest is refused
// with a 503 until the pipeline runs), and StopIngest after the
// listeners drain.
func NewNode(eng *engine.Engine) *Node {
	return &Node{eng: eng, dedupe: wire.NewWindow(0, 0)}
}

func (n *Node) DeclareStream(_ context.Context, tenant string, req serve.StreamReq) error {
	return n.eng.Tenant(tenant).DeclareStream(req.Name, req.Domain)
}

func (n *Node) Streams(_ context.Context, tenant string) ([]string, error) {
	return n.eng.Tenant(tenant).Streams(), nil
}

func (n *Node) RegisterPredicate(_ context.Context, tenant string, def serve.PredicateReq) error {
	return n.eng.Tenant(tenant).RegisterPredicate(def.Name, def.Predicate)
}

func (n *Node) RegisterQuery(_ context.Context, tenant string, req serve.QueryReq) error {
	// A fresh synopsis pair over the memory quota is refused with an
	// error wrapping engine.ErrQuotaExceeded: a 429.
	return n.eng.Tenant(tenant).RegisterQuery(engine.QuerySpec{Name: req.Name, Agg: req.Agg, Left: req.Left, Right: req.Right})
}

func (n *Node) Queries(_ context.Context, tenant string) ([]string, error) {
	return n.eng.Tenant(tenant).Queries(), nil
}

func (n *Node) RemoveQuery(_ context.Context, tenant, query string) error {
	return n.eng.Tenant(tenant).RemoveQuery(query)
}

func (n *Node) SetQuota(_ context.Context, req serve.TenantReq) error {
	return n.eng.SetQuota(req.Name, req.Quota)
}

// Tenants lists every tenant with its quota and counters, sorted by
// name, from one quiesced Stats read.
func (n *Node) Tenants(context.Context) (any, error) {
	st := n.eng.Stats()
	names := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		out = append(out, tenantStatsJSON(st.Tenants[name]))
	}
	return out, nil
}

// Shed refuses a request while an ingest queue is full, counting it in
// the ingest stats' rejections, instead of blocking the front end (and
// the client, and eventually every connection) on a queue that may stay
// full. Replays of admitted keys are let through to the dedupe window.
func (n *Node) Shed(key serve.Key) bool {
	if !n.eng.IngestSaturated() {
		return false
	}
	if key.Client != "" {
		if _, replay := n.dedupe.Lookup(key.Client, key.Seq); replay {
			return false
		}
	}
	n.eng.NoteRejected(1)
	return true
}

// IngestGroups is the node's admission path for both /update and SKSP:
// replays are answered from the dedupe window, and the engine admits
// every group or none. A keyed admission holds the key's claim in the
// window until it ends, so a concurrent delivery of the same key waits
// for its outcome instead of applying a second time. Its errors reach
// the surface as they are.
func (n *Node) IngestGroups(_ context.Context, tenant string, key serve.Key, groups []stream.Group, release func()) (int64, bool, error) {
	if key.Client != "" {
		if out, ok := n.dedupe.Claim(key.Client, key.Seq); ok {
			if release != nil {
				release()
			}
			return out.Applied, true, nil
		}
	}
	var total int64
	for i := range groups {
		total += int64(len(groups[i].Updates))
	}
	if err := n.eng.Tenant(tenant).IngestGroups(groups, release); err != nil {
		if key.Client != "" {
			n.dedupe.Release(key.Client, key.Seq)
		}
		return 0, false, err
	}
	if key.Client != "" {
		n.dedupe.Record(key.Client, key.Seq, wire.Outcome{Applied: total})
	}
	return total, false, nil
}

func (n *Node) Flush(context.Context) error {
	n.eng.Flush()
	return nil
}

func (n *Node) Answer(_ context.Context, tenant, query string) (serve.Answer, error) {
	ans, err := n.eng.Tenant(tenant).Answer(query)
	return serve.Answer{Answer: ans}, err
}

// Sketch serves the shard side of cluster mode: the fat update-side
// state (hash families, pipeline, intern tables) stays here and only
// the slim counters travel. The snapshot drains the ingest pipeline
// first, so a payload reflects every previously accepted update — which
// is what makes a healthy cluster answer bit-identical to a single
// node's.
func (n *Node) Sketch(_ context.Context, tenant, query string) ([]byte, *serve.Coverage, error) {
	qs, err := n.eng.Tenant(tenant).QuerySketches(query)
	if err != nil {
		return nil, nil, err
	}
	blob, err := EncodePayload(&Payload{
		Agg: aggCode(qs.Agg), Domain: qs.Domain,
		LeftEpoch: qs.LeftEpoch, RightEpoch: qs.RightEpoch,
		Left: qs.Left, Right: qs.Right,
	})
	if err != nil {
		return nil, nil, &serve.Error{Status: http.StatusInternalServerError, Err: err}
	}
	return blob, nil, nil
}

func (n *Node) RegisterWatch(_ context.Context, tenant string, req serve.WatchReq) error {
	return n.eng.Tenant(tenant).RegisterWatch(req.Query, req.WatchConfig)
}

func (n *Node) Watches() *monitor.Registry { return n.eng.Watches() }

// Stats reports one tenant's slice, or, unscoped, the engine-wide
// figures plus the ingest pipeline's counters, all from one quiesced
// read.
func (n *Node) Stats(_ context.Context, tenant string) (map[string]any, error) {
	if tenant != "" {
		return tenantStatsJSON(n.eng.Tenant(tenant).Stats()), nil
	}
	st := n.eng.Stats()
	tenants := make(map[string]any, len(st.Tenants))
	for name, ts := range st.Tenants {
		tenants[name] = tenantStatsJSON(ts)
	}
	return map[string]any{
		"streams":      st.Streams,
		"queries":      st.Queries,
		"synopses":     st.Synopses,
		"synopsisRefs": st.SynopsisRefs,
		"totalWords":   st.TotalWords,
		"updateCounts": st.UpdateCounts,
		"queryWorkers": st.QueryWorkers,
		"answerCache": map[string]int64{
			"hits":   st.AnswerCacheHits,
			"misses": st.AnswerCacheMisses,
		},
		"watches": st.Watches,
		"tenants": tenants,
		"ingest":  st.Ingest,
		// saturated mirrors the admission probe behind Shed: true while
		// at least one ingest queue is full.
		"saturated":     n.eng.IngestSaturated(),
		"dedupeClients": n.dedupe.Clients(),
	}, nil
}

// tenantStatsJSON renders one tenant's stats slice.
func tenantStatsJSON(st engine.TenantStats) map[string]any {
	return map[string]any{
		"tenant":       st.Tenant,
		"streams":      st.Streams,
		"queries":      st.Queries,
		"synopses":     st.Synopses,
		"synopsisRefs": st.SynopsisRefs,
		"totalWords":   st.TotalWords,
		"updateCounts": st.UpdateCounts,
		"answerCache": map[string]int64{
			"hits":   st.AnswerCacheHits,
			"misses": st.AnswerCacheMisses,
		},
		"pendingUpdates": st.PendingUpdates,
		"rejected":       st.Rejected,
		"watches":        st.Watches,
		"quota": map[string]any{
			"maxSynopsisWords":  st.Quota.MaxSynopsisWords,
			"maxPendingUpdates": st.Quota.MaxPendingUpdates,
		},
	}
}

// Snapshot writes the engine's JSON snapshot, or one tenant's slice in
// the single-tenant layout.
func (n *Node) Snapshot(_ context.Context, tenant string, w io.Writer) error {
	if tenant != "" {
		return n.eng.Tenant(tenant).Snapshot(w)
	}
	return n.eng.Snapshot(w)
}

// Restore loads a snapshot into the empty engine, or a single-tenant
// snapshot into one empty tenant.
func (n *Node) Restore(_ context.Context, tenant string, r io.Reader) error {
	if tenant != "" {
		return n.eng.Tenant(tenant).Restore(r)
	}
	return n.eng.Restore(r)
}

// legacyCheckpoint is the checkpoint payload nodes wrote before engine
// snapshots carried predicates: the range predicates, then the engine
// snapshot, which needs them registered first. Version 1 predicates have
// no tenant; version 2 spells the default tenant "". Nodes read this
// layout but write the bare engine snapshot.
type legacyCheckpoint struct {
	Version    int                  `json:"version"`
	Predicates []serve.PredicateReq `json:"predicates"`
	Engine     json.RawMessage      `json:"engine"`
}

// ReadCheckpoint restores a checkpoint payload into the empty engine:
// an engine snapshot (Engine.Snapshot), or a legacy payload, told apart
// by its "engine" key.
func (n *Node) ReadCheckpoint(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("read checkpoint: %w", err)
	}
	// An engine snapshot's predicates are a map, which fails this decode
	// but leaves Engine nil: json.Unmarshal fills every field it can.
	var cp legacyCheckpoint
	err = json.Unmarshal(data, &cp)
	if cp.Engine == nil {
		return n.eng.Restore(bytes.NewReader(data))
	}
	if err != nil {
		return fmt.Errorf("decode checkpoint: %w", err)
	}
	if cp.Version != 1 && cp.Version != 2 {
		return fmt.Errorf("unsupported sketchd checkpoint version %d", cp.Version)
	}
	for _, def := range cp.Predicates {
		tenant := def.Tenant
		if tenant == "" {
			tenant = engine.DefaultTenant
		}
		if err := n.RegisterPredicate(context.Background(), tenant, def); err != nil {
			return err
		}
	}
	return n.eng.Restore(bytes.NewReader(cp.Engine))
}
