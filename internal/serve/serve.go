// Package serve is sketchd's serving surface, written once: the HTTP
// API (tenant scoping, status mapping, standing watches, /stats,
// /healthz) and the SKSP binary ingest listener, both over a Backend.
// A single node and a cluster merger are the same service over
// different backends (internal/cluster implements both), so whatever an
// endpoint does, it does in either role: a merger's watches evaluate
// the merger's global answer, its /update parses Idempotency-Key like a
// node's, and its /sketch checks shard metadata like its /answer.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skimsketch/internal/engine"
	"skimsketch/internal/monitor"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// Backend is what the surface needs from the process behind it. Every
// tenant argument is resolved and valid, except that an empty tenant on
// Stats, Snapshot and Restore means the whole process.
//
// Errors reach the wire as follows: an *Error carries its own status;
// an error wrapping engine.ErrQuotaExceeded is a 429, one wrapping
// engine.ErrNotIngesting a 503; on /answer and /sketch, one wrapping
// engine.ErrUnknownQuery is a 404; anything else gets the endpoint's
// default (400 for a mutation, 404 for removing a query or watch, 500
// otherwise). An *engine.StreamError names its stream in the body.
type Backend interface {
	DeclareStream(ctx context.Context, tenant string, req StreamReq) error
	Streams(ctx context.Context, tenant string) ([]string, error)
	RegisterPredicate(ctx context.Context, tenant string, req PredicateReq) error
	RegisterQuery(ctx context.Context, tenant string, req QueryReq) error
	Queries(ctx context.Context, tenant string) ([]string, error)
	RemoveQuery(ctx context.Context, tenant, query string) error
	SetQuota(ctx context.Context, req TenantReq) error
	Tenants(ctx context.Context) (any, error)

	// Shed is the cheap admission probe both front ends run before
	// decoding a request: true means the backend is saturated and this
	// request is refused with 429/REJECT, applying nothing. A key the
	// backend already admitted is never shed — answering a replay
	// applies nothing, so it is always admissible.
	Shed(key Key) bool
	// IngestGroups admits one request of stream groups atomically: on
	// error nothing was applied. A non-zero key makes admission
	// exactly-once — a key already admitted applies nothing and reports
	// duplicate. release, when non-nil, follows
	// engine.Tenant.IngestGroups: on a nil error it is called exactly
	// once, when the backend no longer reads groups; on an error, never.
	IngestGroups(ctx context.Context, tenant string, key Key, groups []stream.Group, release func()) (applied int64, duplicate bool, err error)
	Flush(ctx context.Context) error

	Answer(ctx context.Context, tenant, query string) (Answer, error)
	// Sketch returns the query's SKSL payload (docs/FORMATS.md) and,
	// from a merger, the shards it covers.
	Sketch(ctx context.Context, tenant, query string) ([]byte, *Coverage, error)

	// RegisterWatch installs a standing watch on an existing query.
	// Watches holds them for listing, removal and evaluation against
	// Answer.
	RegisterWatch(ctx context.Context, tenant string, req WatchReq) error
	Watches() *monitor.Registry

	Stats(ctx context.Context, tenant string) (map[string]any, error)
	Snapshot(ctx context.Context, tenant string, w io.Writer) error
	Restore(ctx context.Context, tenant string, r io.Reader) error
}

// Key is a batch's exactly-once identity: the client's (clientID, seq),
// from an HTTP Idempotency-Key or an SKSP frame. The zero Key is none.
type Key struct {
	Client string
	Seq    uint64
}

// Error is a backend failure with the wire status it maps to.
type Error struct {
	Status int
	// RetryAfter is the hint a 429 or 503 carries, floored at one second.
	RetryAfter time.Duration
	// Stream names the stream that failed validation, when known.
	Stream string
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// errBusy answers a shed request: nothing was applied, so it is safely
// retryable.
var errBusy = &Error{Status: http.StatusTooManyRequests, Err: errors.New("ingest queues full; retry after backoff")}

func badRequest(err error) error { return &Error{Status: http.StatusBadRequest, Err: err} }

// retryAfterSeconds turns a hint into the whole seconds sent on the
// wire. The floor is one second: the ingest queues drain in well under
// a second unless a worker is wedged, so that is a safe client backoff.
func retryAfterSeconds(d time.Duration) int {
	return max(1, int(d/time.Second))
}

// The request bodies of the JSON API. Tenant is the optional body scope
// (see scope); backends receive the resolved tenant separately.
type (
	StreamReq struct {
		Tenant string `json:"tenant,omitempty"`
		Name   string `json:"name"`
		Domain uint64 `json:"domain"`
	}
	// PredicateReq registers a value-range predicate under Name. Legacy
	// node checkpoints hold it too, with Tenant set (empty for the
	// default tenant).
	PredicateReq struct {
		Tenant string `json:"tenant,omitempty"`
		Name   string `json:"name"`
		engine.Predicate
	}
	// QueryReq registers a query; an unknown aggregate fails its decode.
	QueryReq struct {
		Tenant string           `json:"tenant,omitempty"`
		Name   string           `json:"name"`
		Agg    engine.Aggregate `json:"agg"`
		Left   engine.Side      `json:"left"`
		Right  engine.Side      `json:"right"`
	}
	UpdateReq struct {
		Tenant string `json:"tenant,omitempty"`
		Stream string `json:"stream"`
		Value  uint64 `json:"value"`
		// Weight is a pointer so an omitted weight (a bare insert,
		// weight 1) is distinguishable from an explicit 0.
		Weight *int64 `json:"weight,omitempty"`
	}
	// TenantReq installs (or replaces) one tenant's quota.
	TenantReq struct {
		Name  string       `json:"name"`
		Quota engine.Quota `json:"quota"`
	}
	WatchReq struct {
		Tenant string `json:"tenant,omitempty"`
		Query  string `json:"query"`
		monitor.WatchConfig
	}
)

// Answer is one query result: the engine's, plus a cluster answer's
// coverage and epochs.
type Answer struct {
	engine.Answer
	// Shards is the coverage of a cluster answer; nil from a node.
	Shards *Coverage
	// LeftEpoch and RightEpoch sum the merged shards' synopsis epochs
	// (cluster answers only).
	LeftEpoch, RightEpoch uint64
}

// Coverage reports which shards contributed to a cluster result.
type Coverage struct {
	Answered int      `json:"answered"`
	Of       int      `json:"of"`
	Missing  []string `json:"missing"`
}

// Server is the HTTP surface over a Backend.
type Server struct {
	b     Backend
	mux   *http.ServeMux
	start time.Time // anchors uptime on the monotonic clock
	// draining flips once shutdown begins; /healthz then answers 503 so
	// load balancers and harnesses stop sending new work.
	draining atomic.Bool
	// updateLat is the histogram of /update handling latency (429s and
	// malformed requests included) that load harnesses reconcile their
	// own measurements against.
	updateLat latency
	// sksp is the SKSP listener, if Listen attached one before serving.
	sksp *Listener
	// bodies recycles the *bytes.Buffer a groups body is read into; it
	// is returned as soon as the body is decoded.
	bodies sync.Pool
}

// New builds the HTTP surface over b.
func New(b Backend) *Server {
	s := &Server{b: b, mux: http.NewServeMux(), start: time.Now()}
	s.bodies.New = func() any { return new(bytes.Buffer) }
	for path, h := range map[string]methods{
		"/streams":          {"POST": s.declareStream, "GET": s.listStreams},
		"/predicates":       {"POST": s.registerPredicate},
		"/queries":          {"POST": s.registerQuery, "GET": s.listQueries},
		"/queries/":         {"DELETE": s.removeQuery},
		"/update":           {"POST": s.update},
		"/flush":            {"POST": s.flush},
		"/answer":           {"GET": s.answer},
		"/sketch":           {"GET": s.sketch},
		"/stats":            {"GET": s.stats},
		"/snapshot":         {"GET": s.snapshot},
		"/restore":          {"POST": s.restore},
		"/tenants":          {"GET": s.listTenants, "POST": s.setQuota},
		"/watches":          {"GET": s.listWatches, "POST": s.registerWatch},
		"/watches/evaluate": {"POST": s.evaluateWatches},
		"/watches/":         {"DELETE": s.removeWatch},
		"/healthz":          {"GET": s.healthz},
	} {
		s.mux.Handle(path, h)
	}
	return s
}

// SetDraining flips /healthz to 503 for the shutdown drain.
func (s *Server) SetDraining() { s.draining.Store(true) }

// EvaluateWatches answers every watch of tenant ("" = every tenant)
// through the backend's Answer and runs the alert state machines — on a
// merger, against the global estimate.
func (s *Server) EvaluateWatches(ctx context.Context, tenant string) ([]monitor.WatchStatus, error) {
	return s.b.Watches().Evaluate(tenant, func(tenant, query string) (int64, error) {
		ans, err := s.b.Answer(ctx, tenant, query)
		return ans.Estimate, err
	})
}

// methods dispatches on the request method, answering any other method
// with a JSON 405.
type methods map[string]http.HandlerFunc

func (m methods) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := m[r.Method]; ok {
		h(w, r)
		return
	}
	allowed := make([]string, 0, len(m))
	for method := range m {
		allowed = append(allowed, method)
	}
	sort.Strings(allowed)
	writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use " + strings.Join(allowed, " or ")})
}

// tenantCtxKey carries the tenant the URL named. The empty string means
// none, which differs from naming the default tenant: a bare /stats
// reports every tenant, /t/default/stats reports one.
type tenantCtxKey struct{}

// ServeHTTP resolves the URL's tenant scope, then muxes. Every endpoint
// is also reachable under /t/{tenant}/…, and ?tenant= scopes the flat
// paths; naming different tenants in both is a 400, not a silent pick.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tenant := ""
	if rest, ok := strings.CutPrefix(r.URL.Path, "/t/"); ok {
		name, tail, found := strings.Cut(rest, "/")
		if !found || name == "" {
			writeErr(w, errors.New("tenant-scoped paths are /t/{tenant}/{endpoint}"), http.StatusNotFound)
			return
		}
		tenant = name
		r = r.Clone(r.Context())
		r.URL.Path = "/" + tail
	}
	if q := r.URL.Query().Get("tenant"); q != "" {
		if tenant != "" && q != tenant {
			writeErr(w, fmt.Errorf("conflicting tenants %q (path) and %q (query)", tenant, q), http.StatusBadRequest)
			return
		}
		tenant = q
	}
	if tenant != "" {
		if err := engine.ValidTenantName(tenant); err != nil {
			writeErr(w, err, http.StatusBadRequest)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
	}
	s.mux.ServeHTTP(w, r)
}

// urlTenant returns the tenant the URL named, or "" for the flat API.
func urlTenant(r *http.Request) string {
	tenant, _ := r.Context().Value(tenantCtxKey{}).(string)
	return tenant
}

// scope resolves the tenant a request operates on: the URL's, else the
// body's, else the default tenant — which is how the pre-tenant flat
// API keeps its behavior. A body naming a different tenant than the URL
// is rejected rather than resolved.
func scope(r *http.Request, body string) (string, error) {
	tenant := urlTenant(r)
	switch {
	case body == "" || body == tenant:
	case tenant != "":
		return "", badRequest(fmt.Errorf("conflicting tenants %q (url) and %q (body)", tenant, body))
	default:
		if err := engine.ValidTenantName(body); err != nil {
			return "", badRequest(err)
		}
		tenant = body
	}
	if tenant == "" {
		tenant = engine.DefaultTenant
	}
	return tenant, nil
}

// urlScope is scope for a request without a body tenant, which cannot
// conflict.
func urlScope(r *http.Request) string {
	tenant, _ := scope(r, "")
	return tenant
}

// decodeScoped decodes the JSON body into req and resolves its scope;
// bodyTenant points at req's Tenant field.
func decodeScoped(r *http.Request, req any, bodyTenant *string) (string, error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return "", badRequest(err)
	}
	return scope(r, *bodyTenant)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// classify maps err to its wire status (fallback when it names none),
// its Retry-After hint and the stream that failed validation. It walks
// the Unwrap chain itself because errors.As moves its target to the
// heap, and the SKSP reject path must not allocate per frame. An *Error
// anywhere in the chain decides alone.
func classify(err error, fallback int) (status int, after time.Duration, stream string) {
	status = fallback
	for x := err; x != nil; x = errors.Unwrap(x) {
		switch x := x.(type) {
		case *Error:
			return x.Status, x.RetryAfter, x.Stream
		case *engine.StreamError:
			stream = x.Stream
		}
		switch x {
		case engine.ErrQuotaExceeded:
			status = http.StatusTooManyRequests
		case engine.ErrNotIngesting:
			status = http.StatusServiceUnavailable
		}
	}
	return status, 0, stream
}

// retryStatus reports whether status is a rejection that applied
// nothing and should be retried after its hint.
func retryStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// writeErr renders err with the status it maps to. A 429 or 503 always
// carries Retry-After, so well-behaved clients never fall back to blind
// backoff.
func writeErr(w http.ResponseWriter, err error, fallback int) {
	status, after, stream := classify(err, fallback)
	if retryStatus(status) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(after)))
	}
	body := map[string]string{"error": err.Error()}
	if stream != "" {
		body["stream"] = stream
	}
	writeJSON(w, status, body)
}

// respond writes v with status ok, or err with fallback as its default
// status.
func respond(w http.ResponseWriter, ok int, v any, err error, fallback int) {
	if err != nil {
		writeErr(w, err, fallback)
		return
	}
	writeJSON(w, ok, v)
}

var statusOK = map[string]string{"status": "ok"}

func (s *Server) declareStream(w http.ResponseWriter, r *http.Request) {
	var req StreamReq
	tenant, err := decodeScoped(r, &req, &req.Tenant)
	if err == nil {
		err = s.b.DeclareStream(r.Context(), tenant, req)
	}
	respond(w, http.StatusCreated, statusOK, err, http.StatusBadRequest)
}

func (s *Server) listStreams(w http.ResponseWriter, r *http.Request) {
	names, err := s.b.Streams(r.Context(), urlScope(r))
	respond(w, http.StatusOK, map[string]any{"streams": names}, err, http.StatusInternalServerError)
}

func (s *Server) registerPredicate(w http.ResponseWriter, r *http.Request) {
	var req PredicateReq
	tenant, err := decodeScoped(r, &req, &req.Tenant)
	if err == nil {
		err = s.b.RegisterPredicate(r.Context(), tenant, req)
	}
	respond(w, http.StatusCreated, statusOK, err, http.StatusBadRequest)
}

func (s *Server) registerQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryReq
	tenant, err := decodeScoped(r, &req, &req.Tenant)
	if err == nil {
		err = s.b.RegisterQuery(r.Context(), tenant, req)
	}
	respond(w, http.StatusCreated, statusOK, err, http.StatusBadRequest)
}

func (s *Server) listQueries(w http.ResponseWriter, r *http.Request) {
	names, err := s.b.Queries(r.Context(), urlScope(r))
	respond(w, http.StatusOK, map[string]any{"queries": names}, err, http.StatusInternalServerError)
}

func (s *Server) removeQuery(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/queries/")
	err := badRequest(errors.New("missing query name"))
	if name != "" {
		err = s.b.RemoveQuery(r.Context(), urlScope(r), name)
	}
	respond(w, http.StatusOK, statusOK, err, http.StatusNotFound)
}

// parseIdempotencyKey parses an optional Idempotency-Key header of the
// form "clientID:seq". A client that may retry a batch (because the
// connection died after the server applied it but before the response
// arrived) sends the same key on every attempt, and the batch applies
// once. An absent header is the zero Key.
func parseIdempotencyKey(key string) (Key, error) {
	if key == "" {
		return Key{}, nil
	}
	i := strings.LastIndexByte(key, ':')
	if i <= 0 || i == len(key)-1 {
		return Key{}, fmt.Errorf("malformed Idempotency-Key %q: want clientID:seq", key)
	}
	seq, err := strconv.ParseUint(key[i+1:], 10, 64)
	if err != nil {
		return Key{}, fmt.Errorf("malformed Idempotency-Key %q: seq: %w", key, err)
	}
	if len(key) > 2*wire.MaxNameLen {
		return Key{}, fmt.Errorf("Idempotency-Key longer than %d bytes", 2*wire.MaxNameLen)
	}
	return Key{Client: key[:i], Seq: seq}, nil
}

// update accepts one JSON update object or an array of them, for one
// tenant, and hands the request to the backend as stream groups
// (preserving per-stream order) in one atomic admission.
func (s *Server) update(w http.ResponseWriter, r *http.Request) {
	// Every outcome, 429s and malformed requests included, is timed: the
	// request count a harness reconciles against is requests, not
	// successes.
	defer s.updateLat.since(time.Now())
	key, err := parseIdempotencyKey(r.Header.Get("Idempotency-Key"))
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	// Shed before reading the body: an overloaded server wants the
	// cheapest possible rejection, not a queue wait that may never end.
	if s.b.Shed(key) {
		writeErr(w, errBusy, http.StatusTooManyRequests)
		return
	}
	if r.Header.Get("Content-Type") == wire.GroupsContentType {
		s.updateGroups(w, r, key)
		return
	}
	batch, err := s.readJSONBatch(r)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	// One request updates one tenant, so a batch can never be
	// half-applied across namespaces.
	bodyTenant := ""
	for _, u := range batch {
		if u.Tenant != "" && bodyTenant != "" && u.Tenant != bodyTenant {
			writeErr(w, fmt.Errorf("batch mixes tenants %q and %q; one tenant per request", bodyTenant, u.Tenant), http.StatusBadRequest)
			return
		}
		if u.Tenant != "" {
			bodyTenant = u.Tenant
		}
	}
	tenant, err := scope(r, bodyTenant)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	byStream := make(map[string]int)
	groups := make([]stream.Group, 0, 2)
	for _, u := range batch {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		i, ok := byStream[u.Stream]
		if !ok {
			i = len(groups)
			byStream[u.Stream] = i
			groups = append(groups, stream.Group{Name: u.Stream})
		}
		groups[i].Updates = append(groups[i].Updates, stream.Update{Value: u.Value, Weight: weight})
	}
	applied, dup, err := s.b.IngestGroups(r.Context(), tenant, key, groups, nil)
	ackUpdate(w, applied, dup, err)
}

// readJSONBatch reads and decodes a JSON /update body: one update
// object or an array of them. The decoded strings are copies, so the
// body's buffer goes back to the pool before the batch is admitted.
func (s *Server) readJSONBatch(r *http.Request) ([]UpdateReq, error) {
	buf := s.bodies.Get().(*bytes.Buffer)
	defer s.bodies.Put(buf)
	if err := readBody(r, buf); err != nil {
		return nil, err
	}
	var batch []UpdateReq
	if json.Unmarshal(buf.Bytes(), &batch) != nil {
		var one UpdateReq
		if err := json.Unmarshal(buf.Bytes(), &one); err != nil {
			return nil, errors.New("expected a JSON update object or array of them")
		}
		batch = []UpdateReq{one}
	}
	return batch, nil
}

// ackUpdate writes /update's response, whatever the body's format.
func ackUpdate(w http.ResponseWriter, applied int64, dup bool, err error) {
	resp := map[string]any{"applied": applied}
	if dup {
		resp["deduplicated"] = true
	}
	respond(w, http.StatusOK, resp, err, http.StatusBadRequest)
}

// errBodyTooLarge refuses an /update body over the SKSP frame cap, the
// bound a frame carrying the same updates would meet.
var errBodyTooLarge = &Error{Status: http.StatusRequestEntityTooLarge,
	Err: fmt.Errorf("body exceeds %d bytes", wire.MaxFramePayload)}

// updateGroups is /update for a wire.GroupsContentType body, the groups
// section of an SKSP DATA payload: what a cluster merger forwards to
// each shard. The tenant is the URL's alone, since the body names none.
//
// Unlike the SKSP listener, it decodes into a fresh wire.Data rather
// than a pooled one. The groups stay queued in the engine until applied,
// so a pool holds up to two GC cycles' worth of them; under skimbench's
// cluster3 load on 2 vCPUs that raised each shard's peak RSS by
// ~0.6 MiB and did not raise throughput.
func (s *Server) updateGroups(w http.ResponseWriter, r *http.Request, key Key) {
	buf := s.bodies.Get().(*bytes.Buffer)
	var d wire.Data
	err := readBody(r, buf)
	if err == nil {
		if derr := wire.DecodeGroups(buf.Bytes(), &d); derr != nil {
			err = badRequest(derr)
		}
	}
	// The decoded groups copy everything they need out of the body.
	s.bodies.Put(buf)
	if err != nil {
		writeErr(w, err, http.StatusBadRequest)
		return
	}
	applied, dup, err := s.b.IngestGroups(r.Context(), urlScope(r), key, d.Groups, nil)
	ackUpdate(w, applied, dup, err)
}

// readBody reads r's /update body, in either format, into buf. A body over
// wire.MaxFramePayload is refused before it is read in full: at once
// when its declared length says so, else after the first byte past the
// cap.
func readBody(r *http.Request, buf *bytes.Buffer) error {
	if r.ContentLength > wire.MaxFramePayload {
		return errBodyTooLarge
	}
	buf.Reset()
	if r.ContentLength > 0 {
		// ReadFrom keeps MinRead bytes free before each read, so this
		// reads a declared-length body without growing buf again.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, wire.MaxFramePayload+1)); err != nil {
		return badRequest(fmt.Errorf("read body: %w", err))
	}
	if buf.Len() > wire.MaxFramePayload {
		return errBodyTooLarge
	}
	return nil
}

// flush drains ingestion: once it returns, every previously accepted
// update is folded into its synopses. The pipeline is shared, so a
// tenant-scoped flush drains everyone — flush is a barrier, not a
// privilege.
func (s *Server) flush(w http.ResponseWriter, r *http.Request) {
	respond(w, http.StatusOK, statusOK, s.b.Flush(r.Context()), http.StatusInternalServerError)
}

// queryParam returns ?query=, or a 400 when it is missing.
func queryParam(r *http.Request) (string, error) {
	name := r.URL.Query().Get("query")
	if name == "" {
		return "", badRequest(errors.New("missing ?query="))
	}
	return name, nil
}

// queryReadStatus is the default status of a failed /answer or /sketch:
// 404 only when the query is unknown, so a failed estimate never reads
// as "not found".
func queryReadStatus(err error) int {
	if errors.Is(err, engine.ErrUnknownQuery) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) answer(w http.ResponseWriter, r *http.Request) {
	name, err := queryParam(r)
	var ans Answer
	if err == nil {
		ans, err = s.b.Answer(r.Context(), urlScope(r), name)
	}
	if err != nil {
		writeErr(w, err, queryReadStatus(err))
		return
	}
	d := ans.Detail
	out := map[string]any{
		"query":    ans.Query,
		"agg":      ans.Agg,
		"estimate": ans.Estimate,
		"detail": map[string]any{
			"denseDense":   d.DenseDense,
			"denseSparse":  d.DenseSparse,
			"sparseDense":  d.SparseDense,
			"sparseSparse": d.SparseSparse,
			"denseCountF":  d.DenseCountF,
			"denseCountG":  d.DenseCountG,
		},
	}
	// A cluster answer over k of n shards is exact for the surviving
	// value partition; errorWidening n/k is the factor by which the
	// missing mass could scale the true total in the uniform case.
	if c := ans.Shards; c != nil {
		out["shards"] = c
		out["confidence"] = map[string]any{
			"coverage":      float64(c.Answered) / float64(c.Of),
			"errorWidening": float64(c.Of) / float64(c.Answered),
			"degraded":      c.Answered < c.Of,
		}
		out["epochs"] = map[string]uint64{"left": ans.LeftEpoch, "right": ans.RightEpoch}
	}
	writeJSON(w, http.StatusOK, out)
}

// sketch serves one query's slim SKSL payload — both synopses plus the
// metadata a merger needs to estimate without asking again. From a
// merger it is the merged global payload, with coverage in
// X-Cluster-Shards ("k/n"), so mergers stack.
func (s *Server) sketch(w http.ResponseWriter, r *http.Request) {
	name, err := queryParam(r)
	var blob []byte
	var cov *Coverage
	if err == nil {
		blob, cov, err = s.b.Sketch(r.Context(), urlScope(r), name)
	}
	if err != nil {
		writeErr(w, err, queryReadStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	if cov != nil {
		w.Header().Set("X-Cluster-Shards", fmt.Sprintf("%d/%d", cov.Answered, cov.Of))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// latency is a goroutine-safe histogram of handling latencies on the
// monotonic clock, one sample per handled request or frame.
type latency struct {
	mu sync.Mutex
	h  stats.Histogram
}

// since records the time elapsed since t0.
func (l *latency) since(t0 time.Time) {
	d := int64(time.Since(t0))
	l.mu.Lock()
	l.h.Record(d)
	l.mu.Unlock()
}

// render is the /stats form of the histogram.
func (l *latency) render() map[string]any {
	l.mu.Lock()
	h := l.h // histograms are values: this is a copy
	l.mu.Unlock()
	return map[string]any{
		"count":  h.Count(),
		"meanNs": h.Mean(),
		"minNs":  h.Min(),
		"maxNs":  h.Max(),
		"p50Ns":  stats.Quantile(&h, 0.50),
		"p95Ns":  stats.Quantile(&h, 0.95),
		"p99Ns":  stats.Quantile(&h, 0.99),
		"p999Ns": stats.Quantile(&h, 0.999),
	}
}

// stats serves the backend's counters; unscoped, it adds the surface's
// own: the /update latency histogram and uptime, both on the monotonic
// clock, and the SKSP listener's counters and frame latency histogram.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	tenant := urlTenant(r)
	st, err := s.b.Stats(r.Context(), tenant)
	if err == nil && tenant == "" {
		st["updateLatency"] = s.updateLat.render()
		st["uptimeSeconds"] = time.Since(s.start).Seconds()
		if s.sksp != nil {
			st["stream"] = s.sksp.stats()
		}
	}
	respond(w, http.StatusOK, st, err, http.StatusInternalServerError)
}

// snapshot buffers the backend's snapshot before any byte reaches the
// client, so a mid-serialization error is a clean 500 rather than a 200
// with a truncated body a restoring client would read as a corrupt
// checkpoint, and success carries an exact Content-Length.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.b.Snapshot(r.Context(), urlTenant(r), &buf); err != nil {
		writeErr(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) restore(w http.ResponseWriter, r *http.Request) {
	respond(w, http.StatusOK, statusOK, s.b.Restore(r.Context(), urlTenant(r), r.Body), http.StatusBadRequest)
}

func (s *Server) listTenants(w http.ResponseWriter, r *http.Request) {
	tenants, err := s.b.Tenants(r.Context())
	respond(w, http.StatusOK, map[string]any{"tenants": tenants}, err, http.StatusInternalServerError)
}

// setQuota installs a tenant's quota, creating the namespace if needed.
func (s *Server) setQuota(w http.ResponseWriter, r *http.Request) {
	var req TenantReq
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = s.b.SetQuota(r.Context(), req)
	}
	respond(w, http.StatusOK, statusOK, err, http.StatusBadRequest)
}

// watchList renders watch statuses, naming the alert state (never null
// on the wire).
func watchList(sts []monitor.WatchStatus) map[string]any {
	out := make([]map[string]any, 0, len(sts))
	for _, st := range sts {
		state := "normal"
		if st.State == monitor.Alert {
			state = "alert"
		}
		out = append(out, map[string]any{
			"tenant":       st.Tenant,
			"query":        st.Query,
			"high":         st.High,
			"low":          st.Low,
			"state":        state,
			"evaluations":  st.Evaluations,
			"transitions":  st.Transitions,
			"lastEstimate": st.LastEstimate,
		})
	}
	return map[string]any{"watches": out}
}

func (s *Server) listWatches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, watchList(s.b.Watches().List(urlScope(r))))
}

func (s *Server) registerWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchReq
	tenant, err := decodeScoped(r, &req, &req.Tenant)
	if err == nil {
		err = s.b.RegisterWatch(r.Context(), tenant, req)
	}
	respond(w, http.StatusCreated, statusOK, err, http.StatusBadRequest)
}

func (s *Server) evaluateWatches(w http.ResponseWriter, r *http.Request) {
	sts, err := s.EvaluateWatches(r.Context(), urlScope(r))
	respond(w, http.StatusOK, watchList(sts), err, http.StatusInternalServerError)
}

func (s *Server) removeWatch(w http.ResponseWriter, r *http.Request) {
	query := strings.TrimPrefix(r.URL.Path, "/watches/")
	var err error
	switch {
	case query == "":
		err = badRequest(errors.New("missing watch query name"))
	case !s.b.Watches().Remove(monitor.WatchKey{Tenant: urlScope(r), Query: query}):
		err = fmt.Errorf("no watch on query %q", query)
	}
	respond(w, http.StatusOK, statusOK, err, http.StatusNotFound)
}

// healthz is the readiness probe: 200 while taking traffic, 503 once
// shutdown drain begins. The listener opens only after the backend is
// ready (checkpoint restored, pipeline started), so 200 means ready,
// not merely alive.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
