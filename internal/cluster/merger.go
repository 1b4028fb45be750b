package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/monitor"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// Merger is the serving backend of the cluster's front tier: it
// hash-routes ingest to the shard ring, broadcasts registrations so
// every shard holds the same schema, and answers global joins by
// pulling each shard's slim SKSL payload and adding the synopses into
// the first one decoded (sketch linearity). It holds no synopsis state,
// only its standing watches, which evaluate the global estimate.
//
// Failure handling is first-class. Every cross-node call carries a
// context deadline, and a lagging or dead shard degrades an answer
// instead of failing it: the merger estimates over the shards it has
// and reports their coverage (serve.Coverage). Because routing
// partitions values (see Config.Route), the degraded estimate is
// exactly the join over the surviving value partition: the merge of k
// shard synopses is bit-identical to a synopsis maintained over
// precisely those shards' updates, so coverage k/n is an honest
// statement of what the number means.
type Merger struct {
	cfg     Config
	client  *http.Client
	timeout time.Duration
	retry   distributed.Backoff
	now     func() time.Time
	watches *monitor.Registry
	// splits recycles the per-shard slices of IngestGroups.
	splits sync.Pool

	// Counters for /stats.
	updateCalls    atomic.Int64
	updatesRouted  atomic.Int64
	updateRejected atomic.Int64
	answers        atomic.Int64
	degraded       atomic.Int64
	pulls          atomic.Int64
	pullFailures   atomic.Int64
}

// maxPayloadBytes caps one shard's response. The largest sensible
// payload (two 64×(1<<18) sketches) is well under this; a response
// exceeding it is a broken or hostile peer, not a big sketch.
const maxPayloadBytes = 1 << 28

// maxPresizeBytes caps how much buffer a declared Content-Length may
// allocate before any byte arrives. It is well above a d = 7, b = 2048
// payload (229 KiB); a larger body grows only as it is read.
const maxPresizeBytes = 4 << 20

// MergerOptions tunes a Merger. The zero value is usable.
type MergerOptions struct {
	// Timeout bounds every cross-node call (dial through body read).
	// <= 0 defaults to 5s.
	Timeout time.Duration
	// Client overrides the HTTP client for cross-node calls; nil builds
	// one with connect and request timeouts derived from Timeout.
	Client *http.Client
	// Retry is the per-shard pull retry policy; the zero value uses 3
	// attempts, 50ms base. Retry-After hints from shards floor the
	// delays (distributed.RetryAfterError).
	Retry distributed.Backoff
	// Now is the clock, for tests. nil uses time.Now.
	Now func() time.Time
}

// NewMerger validates the membership config and builds the backend.
func NewMerger(cfg Config, opts MergerOptions) (*Merger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				DialContext:           (&net.Dialer{Timeout: timeout}).DialContext,
				ResponseHeaderTimeout: timeout,
				MaxIdleConnsPerHost:   64,
				IdleConnTimeout:       90 * time.Second,
			},
		}
	}
	retry := opts.Retry
	if retry == (distributed.Backoff{}) {
		retry = distributed.Backoff{Base: 50 * time.Millisecond, Max: time.Second, Attempts: 3}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	m := &Merger{
		cfg:     cfg,
		client:  client,
		timeout: timeout,
		retry:   retry,
		now:     now,
		watches: monitor.NewRegistry(),
	}
	m.splits.New = func() any { return new(split) }
	return m, nil
}

// shardURL builds a shard API URL with the tenant (if any) and extra
// query parameters attached.
func (m *Merger) shardURL(s Shard, path, tenant string, params url.Values) string {
	base := strings.TrimSuffix(s.Addr, "/") + path
	if params == nil {
		params = url.Values{}
	}
	if tenant != "" {
		params.Set("tenant", tenant)
	}
	if enc := params.Encode(); enc != "" {
		return base + "?" + enc
	}
	return base
}

// forward runs one cross-node call under the merger's deadline and
// returns the shard's response with its body fully read (capped).
func (m *Merger) forward(ctx context.Context, method, u string, body []byte, header http.Header) (status int, respBody []byte, respHeader http.Header, err error) {
	cctx, cancel := context.WithTimeout(ctx, m.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(cctx, method, u, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if body != nil && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := readBody(resp)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b) > maxPayloadBytes {
		return 0, nil, nil, fmt.Errorf("cluster: response from %s exceeds %d bytes", u, maxPayloadBytes)
	}
	return resp.StatusCode, b, resp.Header, nil
}

// readBody reads resp's body, or its first maxPayloadBytes+1 bytes.
// A declared Content-Length up to maxPresizeBytes sizes one buffer
// exactly, where io.ReadAll would regrow it about a dozen times for one
// shard payload. A larger or missing length falls back to io.ReadAll,
// whose buffer grows only as bytes arrive, so a hostile header cannot
// demand memory the peer never sends.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPresizeBytes {
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxPayloadBytes+1))
}

// unreachable is a transport failure to a shard: a 503 the caller
// retries whole.
func unreachable(s Shard, err error) error {
	return &serve.Error{Status: http.StatusServiceUnavailable, Err: fmt.Errorf("shard %s unreachable: %w", s.Name, err)}
}

// refused turns a shard's error response into the same error at the
// merger: status, Retry-After hint, and the failing stream it named.
func (m *Merger) refused(s Shard, status int, body []byte, hdr http.Header) error {
	var e struct {
		Error  string `json:"error"`
		Stream string `json:"stream"`
	}
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(body))
	}
	return &serve.Error{
		Status:     status,
		RetryAfter: distributed.ParseRetryAfter(hdr.Get("Retry-After"), m.now()),
		Stream:     e.Stream,
		Err:        fmt.Errorf("shard %s refused: %s", s.Name, e.Error),
	}
}

// broadcast sends one registration or admin call to every shard so the
// ring stays schema-uniform. All shards must accept; a transport failure
// wins (a 503: the mutation may be half-applied across the ring), then
// the first shard-side refusal.
func (m *Merger) broadcast(ctx context.Context, method, path, tenant string, req any) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return err
		}
	}
	errs := make([]error, len(m.cfg.Shards))
	var wg sync.WaitGroup
	for i, s := range m.cfg.Shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			status, b, hdr, err := m.forward(ctx, method, m.shardURL(s, path, tenant, nil), body, nil)
			switch {
			case err != nil:
				errs[i] = unreachable(s, err)
			case status >= 300:
				errs[i] = m.refused(s, status, b, hdr)
			}
		}(i, s)
	}
	wg.Wait()
	var refusal error
	for _, err := range errs {
		var e *serve.Error
		switch {
		case err == nil:
		case errors.As(err, &e) && e.Status == http.StatusServiceUnavailable:
			return err
		case refusal == nil:
			refusal = err
		}
	}
	return refusal
}

// readFirst answers a schema read from the first shard: the schema is
// uniform by construction, so any shard can.
func (m *Merger) readFirst(ctx context.Context, path, tenant string, out any) error {
	s := m.cfg.Shards[0]
	status, body, hdr, err := m.forward(ctx, http.MethodGet, m.shardURL(s, path, tenant, nil), nil, nil)
	switch {
	case err != nil:
		return unreachable(s, err)
	case status >= 300:
		return m.refused(s, status, body, hdr)
	}
	return json.Unmarshal(body, out)
}

func (m *Merger) DeclareStream(ctx context.Context, tenant string, req serve.StreamReq) error {
	return m.broadcast(ctx, http.MethodPost, "/streams", tenant, req)
}

func (m *Merger) Streams(ctx context.Context, tenant string) ([]string, error) {
	var out struct{ Streams []string }
	err := m.readFirst(ctx, "/streams", tenant, &out)
	return out.Streams, err
}

func (m *Merger) RegisterPredicate(ctx context.Context, tenant string, req serve.PredicateReq) error {
	return m.broadcast(ctx, http.MethodPost, "/predicates", tenant, req)
}

// RegisterQuery broadcasts a query to every shard, but refuses a
// windowed side before any shard sees it: routing gives each shard a
// window over only the elements routed to it, and the shards share no
// time axis, so their merge is not the window a node keeps.
func (m *Merger) RegisterQuery(ctx context.Context, tenant string, req serve.QueryReq) error {
	for _, side := range []engine.Side{req.Left, req.Right} {
		if side.WindowLen > 0 {
			return fmt.Errorf("query %q: a merger refuses windowed sides (stream %q, windowLen %d): each shard would window only the updates routed to it", req.Name, side.Stream, side.WindowLen)
		}
	}
	return m.broadcast(ctx, http.MethodPost, "/queries", tenant, req)
}

func (m *Merger) Queries(ctx context.Context, tenant string) ([]string, error) {
	var out struct{ Queries []string }
	err := m.readFirst(ctx, "/queries", tenant, &out)
	return out.Queries, err
}

// RemoveQuery drops the query on every shard and the merger's watch on
// it, as a node drops a watch with its query.
func (m *Merger) RemoveQuery(ctx context.Context, tenant, query string) error {
	err := m.broadcast(ctx, http.MethodDelete, "/queries/"+url.PathEscape(query), tenant, nil)
	if err == nil {
		m.watches.Remove(monitor.WatchKey{Tenant: tenant, Query: query})
	}
	return err
}

func (m *Merger) SetQuota(ctx context.Context, req serve.TenantReq) error {
	return m.broadcast(ctx, http.MethodPost, "/tenants", "", req)
}

func (m *Merger) Tenants(ctx context.Context) (any, error) {
	var out struct{ Tenants any }
	err := m.readFirst(ctx, "/tenants", "", &out)
	return out.Tenants, err
}

func (m *Merger) Flush(ctx context.Context) error {
	return m.broadcast(ctx, http.MethodPost, "/flush", "", nil)
}

// Shed never refuses at the merger: the shards shed load, and their
// 429s come back through IngestGroups with their hints.
func (m *Merger) Shed(serve.Key) bool { return false }

// IngestGroups routes one request across the ring: each element goes to
// the shard Route picks for its (tenant, stream, value), so the
// per-shard sub-batches partition the request. Each shard receives its
// slice as an SKSP groups body (wire.GroupsContentType) on its HTTP
// /update. The request is not atomic across shards, but it is
// exactly-once per shard under retry: the client's key is derived per
// shard (deriveKey), so the shard dedupe windows carry the promise
// across merger restarts and replays, and the merger remembers nothing.
// A replay is re-forwarded in full; shards that already applied their
// slice answer from memory, and the result is a duplicate only when
// every shard's was.
func (m *Merger) IngestGroups(ctx context.Context, tenant string, key serve.Key, groups []stream.Group, release func()) (int64, bool, error) {
	m.updateCalls.Add(1)
	sp := m.splits.Get().(*split)
	defer m.splits.Put(sp)
	total := sp.route(m.cfg, tenant, groups)
	bodies, err := sp.encode()
	if err != nil {
		m.updateRejected.Add(1)
		return 0, false, err
	}
	baseKey := ""
	if key.Client != "" {
		baseKey = key.Client + ":" + strconv.FormatUint(key.Seq, 10)
	}
	dup, err := m.fanOutUpdate(ctx, tenant, bodies, baseKey)
	if err != nil {
		m.updateRejected.Add(1)
		return 0, false, err
	}
	if release != nil {
		release()
	}
	m.updatesRouted.Add(total)
	return total, dup, nil
}

// split is one request's per-shard slices: shards[i] holds the groups
// shard i receives. Merger.splits recycles it, update slices included,
// so routing a request allocates per shard, not per update.
type split struct {
	shards [][]stream.Group
}

// route fills sp.shards with groups partitioned by Route: each update
// lands in its shard's copy of its group, in request order, and a shard
// gets a group only when it holds at least one of its updates. It
// returns the request's update count.
func (sp *split) route(c Config, tenant string, groups []stream.Group) int64 {
	n := len(c.Shards)
	if cap(sp.shards) < n {
		sp.shards = make([][]stream.Group, n)
	}
	sp.shards = sp.shards[:n]
	for si := range sp.shards {
		sp.shards[si] = sp.shards[si][:0]
	}
	var total int64
	for _, g := range groups {
		for si, gs := range sp.shards {
			sp.shards[si] = openGroup(gs, g.Name)
		}
		prefix := routePrefix(tenant, g.Name)
		for _, u := range g.Updates {
			gs := sp.shards[c.shardOf(prefix, u.Value)]
			last := &gs[len(gs)-1]
			last.Updates = append(last.Updates, u)
		}
		for si, gs := range sp.shards {
			if len(gs[len(gs)-1].Updates) == 0 {
				sp.shards[si] = gs[:len(gs)-1]
			}
		}
		total += int64(len(g.Updates))
	}
	return total
}

// openGroup appends an empty group named name to gs, reusing the update
// slice an earlier request left in that slot.
func openGroup(gs []stream.Group, name string) []stream.Group {
	if len(gs) == cap(gs) {
		return append(gs, stream.Group{Name: name})
	}
	gs = gs[:len(gs)+1]
	g := &gs[len(gs)-1]
	g.Name, g.Updates = name, g.Updates[:0]
	return gs
}

// encode returns each shard's slice as a groups body, empty for a shard
// that receives nothing. Every body is checked against the frame cap
// before any is sent, so an oversized request is a 413 that applied
// nothing anywhere. The bodies share one fresh buffer rather than a
// pooled one: an HTTP transport may still be reading a request body
// after the response arrives.
func (sp *split) encode() ([][]byte, error) {
	size := 0
	for _, gs := range sp.shards {
		for _, g := range gs {
			size += 4*len(g.Updates) + len(g.Name) + 2
		}
	}
	buf := make([]byte, 0, size+len(sp.shards))
	bodies := make([][]byte, len(sp.shards))
	for si, gs := range sp.shards {
		if len(gs) == 0 {
			continue
		}
		start := len(buf)
		var err error
		if buf, err = wire.AppendGroups(buf, gs); err != nil {
			return nil, &serve.Error{Status: http.StatusBadRequest, Err: err}
		}
		if n := len(buf) - start; n > wire.MaxFramePayload {
			return nil, &serve.Error{Status: http.StatusRequestEntityTooLarge,
				Err: fmt.Errorf("shard %d's slice encodes to %d bytes, over the %d-byte cap; send smaller batches", si, n, wire.MaxFramePayload)}
		}
		// A later append may move buf; this body keeps the bytes it has.
		bodies[si] = buf[start:len(buf):len(buf)]
	}
	return bodies, nil
}

// deriveKey scopes a client idempotency key "client:seq" to one shard:
// "client.s<i>:seq". A retry after a partial failure must not
// double-apply on the shards that already accepted, so each shard's
// dedupe window sees a stable per-shard identity. Batches without a key
// are at-least-once per shard under retry, exactly like keyless
// single-node batches.
func deriveKey(baseKey string, shard int) string {
	i := strings.LastIndexByte(baseKey, ':')
	if i <= 0 {
		return ""
	}
	return fmt.Sprintf("%s.s%d%s", baseKey[:i], shard, baseKey[i:])
}

// fanOutUpdate forwards the non-empty per-shard bodies concurrently and
// folds the outcomes: permanent refusals dominate (the request itself is
// bad), then 429s (retryable, with the largest shard hint), then
// transport failures. Success requires every involved shard to accept.
func (m *Merger) fanOutUpdate(ctx context.Context, tenant string, bodies [][]byte, baseKey string) (allDup bool, err error) {
	type shardOut struct {
		dup bool
		err error
	}
	outs := make([]shardOut, len(m.cfg.Shards))
	var wg sync.WaitGroup
	involved := 0
	for si, body := range bodies {
		if len(body) == 0 {
			continue
		}
		involved++
		wg.Add(1)
		go func(si int, body []byte) {
			defer wg.Done()
			dup, err := m.sendUpdate(ctx, m.cfg.Shards[si], tenant, body, deriveKey(baseKey, si))
			outs[si] = shardOut{dup, err}
		}(si, body)
	}
	wg.Wait()
	allDup = involved > 0
	var permanent, rejected, failed error
	var hint time.Duration
	for si, body := range bodies {
		if len(body) == 0 {
			continue
		}
		o := outs[si]
		allDup = allDup && o.err == nil && o.dup
		var e *serve.Error
		switch {
		case o.err == nil:
		case !errors.As(o.err, &e) || (e.Status != http.StatusTooManyRequests && e.Status != http.StatusServiceUnavailable):
			if permanent == nil {
				permanent = o.err
			}
		case e.Status == http.StatusTooManyRequests:
			if rejected == nil || e.RetryAfter > hint {
				rejected, hint = o.err, e.RetryAfter
			}
		default:
			failed = o.err
		}
	}
	if err := cmp.Or(permanent, rejected, failed); err != nil {
		return false, err
	}
	return allDup, nil
}

// sendUpdate forwards one shard's groups body, reporting whether the
// shard answered it from its dedupe window.
func (m *Merger) sendUpdate(ctx context.Context, s Shard, tenant string, body []byte, key string) (bool, error) {
	hdr := http.Header{"Content-Type": {wire.GroupsContentType}}
	if key != "" {
		hdr.Set("Idempotency-Key", key)
	}
	status, respBody, respHdr, err := m.forward(ctx, http.MethodPost, m.shardURL(s, "/update", tenant, nil), body, hdr)
	switch {
	case err != nil:
		return false, unreachable(s, err)
	case status >= 300:
		return false, m.refused(s, status, respBody, respHdr)
	}
	var ack struct {
		Deduplicated bool `json:"deduplicated"`
	}
	return json.Unmarshal(respBody, &ack) == nil && ack.Deduplicated, nil
}

// pullResult is one shard's contribution to a global result.
type pullResult struct {
	shard   Shard
	payload *Payload
	err     error
}

// pullPayloads fetches every shard's SKSL payload concurrently. Each
// pull runs under the merger's retry policy with per-attempt deadlines;
// a shard 429/503 carries its Retry-After hint into the policy via
// distributed.RetryAfterError, so the merger honors shard backpressure
// instead of hammering a recovering node. A shard that does not know
// the query has answered, so its 404 is not retried.
func (m *Merger) pullPayloads(ctx context.Context, tenant, query string) []pullResult {
	results := make([]pullResult, len(m.cfg.Shards))
	var wg sync.WaitGroup
	for i, s := range m.cfg.Shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			var p *Payload
			var unknown error
			err := m.retry.Retry(ctx, func(ctx context.Context) error {
				var ferr error
				p, ferr = m.fetchPayload(ctx, s, tenant, query)
				if errors.Is(ferr, engine.ErrUnknownQuery) {
					unknown, ferr = ferr, nil
				}
				return ferr
			})
			err = cmp.Or(err, unknown)
			if err != nil {
				m.pullFailures.Add(1)
			}
			results[i] = pullResult{shard: s, payload: p, err: err}
		}(i, s)
	}
	wg.Wait()
	return results
}

// fetchPayload performs one GET /sketch attempt against one shard.
func (m *Merger) fetchPayload(ctx context.Context, s Shard, tenant, query string) (*Payload, error) {
	m.pulls.Add(1)
	params := url.Values{"query": {query}}
	status, body, hdr, err := m.forward(ctx, http.MethodGet, m.shardURL(s, "/sketch", tenant, params), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("pull %s: %w", s.Name, err)
	}
	switch {
	case status == http.StatusOK:
		p, err := DecodePayload(body)
		if err != nil {
			return nil, fmt.Errorf("pull %s: %w", s.Name, err)
		}
		return p, nil
	case status == http.StatusNotFound:
		return nil, fmt.Errorf("pull %s: %w %q", s.Name, engine.ErrUnknownQuery, query)
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return nil, &distributed.RetryAfterError{
			After: distributed.ParseRetryAfter(hdr.Get("Retry-After"), m.now()),
			Err:   fmt.Errorf("pull %s: shard busy (%d)", s.Name, status),
		}
	default:
		return nil, fmt.Errorf("pull %s: status %d: %s", s.Name, status, strings.TrimSpace(string(body)))
	}
}

// pullMerged pulls one query's payload from every shard and merges the
// survivors into the global payload: /answer estimates from it, /sketch
// serves it. Each pull decodes a payload of its own, so the first one
// becomes the sum and the others are added into it in place. Shards
// that disagree on the query's aggregate or domain mean the ring's
// schema has diverged, which is an error, not a merge. A query no shard
// knows is unknown to the cluster, as to a node.
func (m *Merger) pullMerged(ctx context.Context, tenant, query string) (*Payload, *serve.Coverage, error) {
	internal := func(err error) error { return &serve.Error{Status: http.StatusInternalServerError, Err: err} }
	cov := &serve.Coverage{Of: len(m.cfg.Shards), Missing: []string{}}
	var merged *Payload
	unknown := 0
	for _, pr := range m.pullPayloads(ctx, tenant, query) {
		if pr.err != nil {
			if errors.Is(pr.err, engine.ErrUnknownQuery) {
				unknown++
			}
			cov.Missing = append(cov.Missing, pr.shard.Name)
			continue
		}
		cov.Answered++
		p := pr.payload
		if merged == nil {
			merged = p
			continue
		}
		if p.Agg != merged.Agg || p.Domain != merged.Domain {
			return nil, nil, internal(fmt.Errorf("shard %s disagrees on query metadata (agg %d domain %d vs agg %d domain %d): ring schema has diverged",
				pr.shard.Name, p.Agg, p.Domain, merged.Agg, merged.Domain))
		}
		if err := merged.Left.Combine(p.Left); err != nil {
			return nil, nil, internal(fmt.Errorf("merge shard %s's left synopsis: %w", pr.shard.Name, err))
		}
		if err := merged.Right.Combine(p.Right); err != nil {
			return nil, nil, internal(fmt.Errorf("merge shard %s's right synopsis: %w", pr.shard.Name, err))
		}
		merged.LeftEpoch += p.LeftEpoch
		merged.RightEpoch += p.RightEpoch
	}
	if unknown == cov.Of {
		return nil, nil, fmt.Errorf("cluster: %w %q on every shard", engine.ErrUnknownQuery, query)
	}
	if merged == nil {
		return nil, nil, &serve.Error{Status: http.StatusServiceUnavailable,
			Err: fmt.Errorf("no shard answered for query %q (%d tried)", query, cov.Of)}
	}
	return merged, cov, nil
}

// Answer estimates the join over the merged shard synopses, pulled
// fresh from every shard, so it reflects every update the shards have
// accepted.
func (m *Merger) Answer(ctx context.Context, tenant, query string) (serve.Answer, error) {
	m.answers.Add(1)
	p, cov, err := m.pullMerged(ctx, tenant, query)
	if err != nil {
		return serve.Answer{}, err
	}
	est, err := core.EstimateJoin(p.Left, p.Right, p.Domain, nil)
	if err != nil {
		return serve.Answer{}, &serve.Error{Status: http.StatusInternalServerError, Err: fmt.Errorf("estimate over merged synopses: %w", err)}
	}
	ans := serve.Answer{
		Answer: engine.Answer{Query: query, Agg: aggOf(p.Agg), Estimate: est.Total, Detail: est},
		Shards: cov, LeftEpoch: p.LeftEpoch, RightEpoch: p.RightEpoch,
	}
	if cov.Answered < cov.Of {
		m.degraded.Add(1)
	}
	return ans, nil
}

// Sketch serves the merged global SKSL payload — the same format the
// shards serve — which makes merger tiers stackable: a higher-level
// merger can pull a whole sub-cluster through one address.
func (m *Merger) Sketch(ctx context.Context, tenant, query string) ([]byte, *serve.Coverage, error) {
	p, cov, err := m.pullMerged(ctx, tenant, query)
	if err != nil {
		return nil, nil, err
	}
	blob, err := EncodePayload(p)
	if err != nil {
		return nil, nil, &serve.Error{Status: http.StatusInternalServerError, Err: err}
	}
	return blob, cov, nil
}

// RegisterWatch installs a watch on a query the ring has registered.
// Watches live in the (stateless) merger, so a merger restart forgets
// them.
func (m *Merger) RegisterWatch(ctx context.Context, tenant string, req serve.WatchReq) error {
	queries, err := m.Queries(ctx, tenant)
	if err != nil {
		return err
	}
	for _, q := range queries {
		if q == req.Query {
			return m.watches.Register(monitor.WatchKey{Tenant: tenant, Query: req.Query}, req.WatchConfig)
		}
	}
	return fmt.Errorf("watch: %w %q", engine.ErrUnknownQuery, req.Query)
}

func (m *Merger) Watches() *monitor.Registry { return m.watches }

// errStateless answers /snapshot and /restore: the synopses live on the
// shards, which snapshot, checkpoint and restore themselves.
var errStateless = &serve.Error{Status: http.StatusNotImplemented,
	Err: errors.New("a merger holds no synopses; snapshot and restore each shard")}

func (m *Merger) Snapshot(context.Context, string, io.Writer) error { return errStateless }
func (m *Merger) Restore(context.Context, string, io.Reader) error  { return errStateless }

// Stats reports the merger's own counters (the shards report theirs).
func (m *Merger) Stats(context.Context, string) (map[string]any, error) {
	shards := make([]map[string]any, 0, len(m.cfg.Shards))
	for _, s := range m.cfg.Shards {
		shards = append(shards, map[string]any{"name": s.Name, "addr": s.Addr})
	}
	return map[string]any{
		"role":   "merger",
		"shards": shards,
		"ingest": map[string]int64{
			"calls":    m.updateCalls.Load(),
			"routed":   m.updatesRouted.Load(),
			"rejected": m.updateRejected.Load(),
		},
		"answers": map[string]int64{
			"total":    m.answers.Load(),
			"degraded": m.degraded.Load(),
		},
		"pulls": map[string]int64{
			"total":    m.pulls.Load(),
			"failures": m.pullFailures.Load(),
		},
		"watches": m.watches.Len(),
	}, nil
}
