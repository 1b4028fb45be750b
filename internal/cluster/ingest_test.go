package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// TestSplitPartitionsRequest: the merger's per-shard slices hold every
// update of the request exactly once, on the shard Route picks, with
// each stream's updates in request order; a shard gets a group only
// when it holds one of its updates; and each encoded body decodes back
// to its slice. Successive requests reuse one split, as the pool does,
// so slots left over from a larger request must not leak into a
// smaller one.
func TestSplitPartitionsRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	request := func(sizes ...int) []stream.Group {
		names := []string{"F", "G", "F", "H"} // a repeated stream keeps both groups
		var gs []stream.Group
		for i, n := range sizes {
			g := stream.Group{Name: names[i%len(names)]}
			for j := 0; j < n; j++ {
				g.Updates = append(g.Updates, stream.Update{Value: rng.Uint64() >> uint(rng.Intn(64)), Weight: rng.Int63n(9) - 4})
			}
			gs = append(gs, g)
		}
		return gs
	}
	for shards := 1; shards <= 7; shards++ {
		c := ring(shards)
		var sp split
		for _, groups := range [][]stream.Group{request(300, 200, 50, 0), request(3, 1), request(0), request(500, 40, 1, 9, 2)} {
			var wantTotal int64
			want := make([][]stream.Group, shards)
			for _, g := range groups {
				wantTotal += int64(len(g.Updates))
				part := make([][]stream.Update, shards)
				for _, u := range g.Updates {
					si := c.Route("acme", g.Name, u.Value)
					part[si] = append(part[si], u)
				}
				for si, ups := range part {
					if len(ups) > 0 {
						want[si] = append(want[si], stream.Group{Name: g.Name, Updates: ups})
					}
				}
			}
			if total := sp.route(c, "acme", groups); total != wantTotal {
				t.Fatalf("%d shards: route counted %d updates, want %d", shards, total, wantTotal)
			}
			bodies, err := sp.encode()
			if err != nil {
				t.Fatal(err)
			}
			for si := range want {
				sameSlice(t, fmt.Sprintf("%d shards, shard %d", shards, si), sp.shards[si], want[si])
				if len(want[si]) == 0 {
					if len(bodies[si]) != 0 {
						t.Fatalf("%d shards: shard %d gets a %d-byte body for nothing", shards, si, len(bodies[si]))
					}
					continue
				}
				var d wire.Data
				if err := wire.DecodeGroups(bodies[si], &d); err != nil {
					t.Fatal(err)
				}
				sameSlice(t, fmt.Sprintf("%d shards, shard %d body", shards, si), d.Groups, want[si])
			}
		}
	}
}

func sameSlice(t *testing.T, what string, got, want []stream.Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || !slices.Equal(got[i].Updates, want[i].Updates) {
			t.Fatalf("%s: group %d = %s with %d updates, want %s with %d", what, i,
				got[i].Name, len(got[i].Updates), want[i].Name, len(want[i].Updates))
		}
	}
}

// newRealRing boots n real shards, each a node backend behind the
// serving surface with sketches of shape sk, and returns their engines
// and ring. wrap, when non-nil, wraps shard i's handler (fault
// injection).
func newRealRing(t testing.TB, n int, sk core.Config, wrap func(i int, h http.Handler) http.Handler) ([]*engine.Engine, Config) {
	t.Helper()
	var engines []*engine.Engine
	var cfg Config
	for i := 0; i < n; i++ {
		eng, err := engine.New(engine.Options{SketchConfig: sk})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.StartIngest(engine.IngestConfig{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		var h http.Handler = serve.New(NewNode(eng))
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(func() {
			srv.Close()
			eng.StopIngest()
		})
		engines = append(engines, eng)
		cfg.Shards = append(cfg.Shards, Shard{Name: fmt.Sprintf("s%d", i), Addr: srv.URL})
	}
	return engines, cfg
}

// newRealMerger builds a merger over cfg; every call builds a fresh one,
// which remembers nothing of any other.
func newRealMerger(t testing.TB, cfg Config) *Merger {
	t.Helper()
	m, err := NewMerger(cfg, MergerOptions{
		Timeout: 5 * time.Second,
		Retry:   distributed.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// declareFG declares F and G over domain and the COUNT query q on every
// shard through m's broadcast.
func declareFG(t testing.TB, m *Merger, domain uint64) {
	t.Helper()
	ctx := context.Background()
	for _, name := range []string{"F", "G"} {
		if err := m.DeclareStream(ctx, engine.DefaultTenant, serve.StreamReq{Name: name, Domain: domain}); err != nil {
			t.Fatal(err)
		}
	}
	q := serve.QueryReq{Name: "q", Agg: engine.Count, Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}
	if err := m.RegisterQuery(ctx, engine.DefaultTenant, q); err != nil {
		t.Fatal(err)
	}
}

// batchGroups is seededBatch as one F and one G group.
func batchGroups(n int) []stream.Group {
	groups := []stream.Group{{Name: "F"}, {Name: "G"}}
	for _, u := range seededBatch(n) {
		weight := int64(1)
		if u.Weight != nil {
			weight = *u.Weight
		}
		gi := 0
		if u.Stream == "G" {
			gi = 1
		}
		groups[gi].Updates = append(groups[gi].Updates, stream.Update{Value: u.Value, Weight: weight})
	}
	return groups
}

// TestMergerRestartReplayExactlyOnce: one shard fails its slice with a
// 503 after the others applied theirs, so the client sees the request
// fail. A fresh merger, which remembers nothing, then replays the same
// (client, seq). Each shard ends up with its slice applied exactly once:
// its update counts are its slice's sizes, and its synopses are byte-equal
// to fresh sketches of that slice alone.
func TestMergerRestartReplayExactlyOnce(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	shards, cfg := newRealRing(t, 3, testCfg(), func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/update" && fail.CompareAndSwap(true, false) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"shard restarting"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	declareFG(t, newRealMerger(t, cfg), 1024)

	ctx := context.Background()
	groups := batchGroups(300)
	key := serve.Key{Client: "restart", Seq: 9}
	_, _, err := newRealMerger(t, cfg).IngestGroups(ctx, engine.DefaultTenant, key, groups, nil)
	var se *serve.Error
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("first attempt: %v, want a 503", err)
	}

	// The merger that forwarded the first attempt is gone; a fresh one
	// replays the request.
	m := newRealMerger(t, cfg)
	applied, dup, err := m.IngestGroups(ctx, engine.DefaultTenant, key, groups, nil)
	if err != nil || dup || applied != 600 {
		t.Fatalf("replay: applied %d, duplicate %v, err %v; want 600, false, nil", applied, dup, err)
	}
	if _, dup, err := m.IngestGroups(ctx, engine.DefaultTenant, key, groups, nil); err != nil || !dup {
		t.Fatalf("second replay: duplicate %v, err %v; want a duplicate", dup, err)
	}

	for si, eng := range shards {
		slice := make(map[string][]stream.Update)
		for _, g := range groups {
			for _, u := range g.Updates {
				if cfg.Route(engine.DefaultTenant, g.Name, u.Value) == si {
					slice[g.Name] = append(slice[g.Name], u)
				}
			}
		}
		eng.Flush()
		counts := eng.Stats().UpdateCounts
		for _, name := range []string{"F", "G"} {
			if counts[name] != int64(len(slice[name])) {
				t.Fatalf("shard %d applied %d %s updates, its slice holds %d", si, counts[name], name, len(slice[name]))
			}
		}
		qs, err := eng.Tenant(engine.DefaultTenant).QuerySketches("q")
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			name   string
			served *core.HashSketch
		}{{"F", qs.Left}, {"G", qs.Right}} {
			fresh, err := core.NewHashSketch(testCfg())
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range slice[side.name] {
				fresh.Update(u.Value, u.Weight)
			}
			if !bytes.Equal(marshal(t, side.served), marshal(t, fresh)) {
				t.Fatalf("shard %d's %s synopsis differs from a fresh sketch of its slice", si, side.name)
			}
		}
	}
}

// TestNodeStoppedPipelineIs503: a node whose engine is not ingesting,
// never started or stopped for shutdown, answers /update with a 503 and
// a Retry-After hint. A 400 would tell the client its batch is bad and
// must not be resent; the merger relays the shard's status, so this is
// what keeps a draining shard's slice replayable. JSON bodies and the
// merger's groups bodies take the same path.
func TestNodeStoppedPipelineIs503(t *testing.T) {
	groupsBody, err := wire.AppendGroups(nil, []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 5, Weight: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	bodies := []struct {
		contentType string
		body        []byte
	}{
		{"application/json", []byte(`[{"stream":"F","value":5,"weight":1}]`)},
		{wire.GroupsContentType, groupsBody},
	}
	for _, stopped := range []bool{false, true} {
		eng, err := engine.New(engine.Options{SketchConfig: testCfg()})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Tenant(engine.DefaultTenant).DeclareStream("F", 64); err != nil {
			t.Fatal(err)
		}
		if stopped {
			if err := eng.StartIngest(engine.IngestConfig{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			eng.StopIngest()
		}
		srv := httptest.NewServer(serve.New(NewNode(eng)))
		t.Cleanup(srv.Close)
		for _, b := range bodies {
			resp, err := http.Post(srv.URL+"/update", b.contentType, bytes.NewReader(b.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("stopped=%v %s: status %d, Retry-After %q; want 503 with a hint",
					stopped, b.contentType, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}
	}
}

func marshal(t *testing.T, s *core.HashSketch) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergerRefusesOversizedSlice: when any shard's slice would encode
// past the SKSP frame cap, the merger refuses the whole request with a
// 413 before sending any slice, so no shard applies anything, not even
// the shard whose own slice is small.
func TestMergerRefusesOversizedSlice(t *testing.T) {
	tc := newTestCluster(t, 2, MergerOptions{})
	tc.registerSchema(t)
	m, err := NewMerger(tc.cfg, MergerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// In-domain values that all route to shard 0 and take 2 uvarint
	// bytes, each with a weight whose zigzag varint takes 10: 12 bytes
	// per update.
	var mine []uint64
	for v := uint64(128); v < 1024; v++ {
		if m.cfg.Route(engine.DefaultTenant, "F", v) == 0 {
			mine = append(mine, v)
		}
	}
	big := stream.Group{Name: "F", Updates: make([]stream.Update, wire.MaxFramePayload/12+1)}
	for i := range big.Updates {
		big.Updates[i] = stream.Update{Value: mine[i%len(mine)], Weight: math.MinInt64}
	}
	small := stream.Group{Name: "G", Updates: []stream.Update{{Value: 1, Weight: 1}, {Value: 2, Weight: 1}, {Value: 3, Weight: 1}}}
	_, _, err = m.IngestGroups(context.Background(), engine.DefaultTenant, serve.Key{}, []stream.Group{big, small}, nil)
	var se *serve.Error
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized slice: %v, want a 413", err)
	}
	for i, sh := range tc.shards {
		if n := sh.updates(); n != 0 {
			t.Fatalf("shard %d applied %d updates of a refused request", i, n)
		}
	}
}

// cluster3Groups is the request skimbench's cluster3 sends: 512
// updates to F and 512 to G, values below 2^16.
func cluster3Groups() []stream.Group {
	rng := rand.New(rand.NewSource(1))
	groups := []stream.Group{{Name: "F"}, {Name: "G"}}
	for gi := range groups {
		for i := 0; i < 512; i++ {
			groups[gi].Updates = append(groups[gi].Updates, stream.Update{Value: uint64(rng.Intn(1 << 16)), Weight: 1})
		}
	}
	return groups
}

// BenchmarkMergerIngest is the in-process 3-shard cluster rung: a merger
// forwarding keyed 1024-update requests (cluster3Groups) to 3 real
// nodes over loopback HTTP. Each iteration is one request, and the
// final flush of every node is timed, so ns/update covers routing,
// encoding, HTTP, decoding, admission and the sketch updates.
func BenchmarkMergerIngest(b *testing.B) {
	shards, cfg := newRealRing(b, 3, testCfg(), nil)
	m := newRealMerger(b, cfg)
	declareFG(b, m, 1<<16)
	groups := cluster3Groups()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := serve.Key{Client: "bench", Seq: uint64(i)}
		if _, _, err := m.IngestGroups(ctx, engine.DefaultTenant, key, groups, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, eng := range shards {
		eng.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/update")
}

// BenchmarkMergerSKSP is the same rung through the merger's SKSP front
// end: one connection into a merger's listener, with its cap of 8,
// over the 3 real nodes, keeping 8 cluster3Groups frames in flight as
// skimbench's cluster3 driver does. Each iteration is one frame, and
// the final flush of every node is timed.
func BenchmarkMergerSKSP(b *testing.B) {
	const window = 8
	shards, cfg := newRealRing(b, 3, testCfg(), nil)
	m := newRealMerger(b, cfg)
	declareFG(b, m, 1<<16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	l := serve.New(m).Listen(ln, window)
	go l.Serve()
	b.Cleanup(l.Shutdown)
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	w, rd := wire.NewWriter(nc), wire.NewReader(nc)
	if err := errors.Join(w.WriteHeader(), w.Flush(), rd.ReadHeader()); err != nil {
		b.Fatal(err)
	}
	frame := &wire.Data{ClientID: "bench", Groups: cluster3Groups()}
	b.ReportAllocs()
	b.ResetTimer()
	for sent, acked := 0, 0; acked < b.N; acked++ {
		for ; sent < b.N && sent-acked < window; sent++ {
			frame.Seq = uint64(sent)
			if err := w.WriteData(frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if ft, _, err := rd.Next(); err != nil || ft != wire.FrameAck {
			b.Fatalf("reply: frame type %d, err %v; want an ACK", ft, err)
		}
	}
	for _, eng := range shards {
		eng.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/update")
}

// cluster3Sketch is the sketch shape skimbench runs: d = 7, b = 2048.
var cluster3Sketch = core.Config{Tables: 7, Buckets: 2048, Seed: 11}

// newAnswerRing boots 3 real nodes at the cluster3Sketch shape behind a
// merger, declares F, G and the COUNT query q over domain 2^16, and
// ingests one cluster3Groups request. The nodes then sit idle, so an
// answer's cost is the pull, decode, merge and skim alone.
func newAnswerRing(tb testing.TB) *Merger {
	tb.Helper()
	shards, cfg := newRealRing(tb, 3, cluster3Sketch, nil)
	m := newRealMerger(tb, cfg)
	declareFG(tb, m, 1<<16)
	key := serve.Key{Client: "answer", Seq: 1}
	if _, _, err := m.IngestGroups(context.Background(), engine.DefaultTenant, key, cluster3Groups(), nil); err != nil {
		tb.Fatal(err)
	}
	for _, eng := range shards {
		eng.Flush()
	}
	return m
}

// BenchmarkMergerAnswer is the in-process cluster answer rung: one
// global answer over newAnswerRing per iteration, which pulls each
// node's SKSL payload over loopback HTTP, decodes and merges the three,
// and skims the sum. B/op counts the nodes' side too, since they run in
// the same process.
func BenchmarkMergerAnswer(b *testing.B) {
	m := newAnswerRing(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Answer(ctx, engine.DefaultTenant, "q"); err != nil {
			b.Fatal(err)
		}
	}
}
