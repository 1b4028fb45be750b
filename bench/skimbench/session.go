package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// rounds is how many times a run alternates its closed, open and probe
// phases. The host's speed drifts over tens of seconds, so alternating
// lets every metric sample the whole run instead of one stretch of it.
const rounds = 4

// outcome is everything one run of one workload measured.
type outcome struct {
	workload  string
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	e2e       map[string]float64 // end-to-end metrics
	layers    map[string]float64 // per-layer metrics, on a traced run only
	info      map[string]float64 // sample counts and other context
	config    map[string]any
}

// session drives one workload against one deployment.
type session struct {
	wl      *workload
	p       *pool
	d       *deployment
	r       *runner
	led     *ledger
	tr      *tracer
	root    *span
	front   api // schema, /stats, /flush and the gate
	answers api // the answer client's connections
	ingest  op
	workers int // requests in flight on the load connections

	mu        sync.Mutex
	answerLat []time.Duration
}

// totals accumulates what the rounds measured.
type totals struct {
	closedUpdates int64
	closedTime    time.Duration
	samples       []float64       // closed-phase updates/s, one per second
	lat, lag      []time.Duration // open-phase requests
}

// runWorkload deploys the workload, drives its phases, checks the
// servers against the reference, and on a traced run times the layers.
func runWorkload(ctx context.Context, cfg *config, wl *workload, tr *tracer) (*outcome, error) {
	p, err := genPool(cfg.seed, wl.domain, wl.tenants, poolBatches, wl.batch)
	if err != nil {
		return nil, err
	}
	ctl := newHTTPClient(4)
	defer ctl.CloseIdleConnections()
	root := tr.start("workload."+wl.name, nil, -1)
	defer root.finish()

	setupSpan := tr.start("phase.setup", root, -1)
	var setups []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if d, err = deploy(ctx, cfg, wl, ctl); err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			d.stop()
		}
	}
	setupSpan.finish()
	defer d.stop()

	cnt := &counters{}
	s := &session{wl: wl, p: p, d: d, r: &runner{cnt: cnt, tr: tr}, led: newLedger(p), tr: tr, root: root,
		front: api{ctl, d.front.url}, answers: api{newHTTPClient(2), d.front.url}}
	defer s.answers.c.CloseIdleConnections()
	closeLoad, err := s.connect(ctx)
	if err != nil {
		return nil, err
	}
	defer closeLoad()

	cpu0, err := d.serverCPU()
	if err != nil {
		return nil, err
	}
	drv0, wall0 := driverCPU(), time.Now()
	t, err := s.measure(ctx, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	cpu1, err := d.serverCPU()
	if err != nil {
		return nil, err
	}
	drv1, wall1 := driverCPU(), time.Now()

	out := &outcome{workload: wl.name, info: map[string]float64{}, config: workloadConfig(cfg, wl)}
	out.e2e = map[string]float64{
		"setup_s":       median(setups),
		"ingest_ups":    float64(t.closedUpdates) / t.closedTime.Seconds(),
		"ack_p50_ms":    ms(quantile(t.lat, 0.50)),
		"ack_p90_ms":    ms(quantile(t.lat, 0.90)),
		"answer_p50_ms": ms(quantile(s.answerLat, 0.50)),
		"answer_p90_ms": ms(quantile(s.answerLat, 0.90)),
	}
	out.info["setup_samples"] = float64(len(setups))
	out.info["ingest_rse"] = relStdErr(t.samples)
	out.info["ingest_samples"] = float64(len(t.samples))
	out.info["open_requests"] = float64(len(t.lat))
	out.info["answers"] = float64(len(s.answerLat))
	out.info["ack_p99_ms"] = ms(quantile(t.lat, 0.99))
	out.info["gen_lag_p99_ms"] = ms(quantile(t.lag, 0.99))
	out.info["driver_cpu_frac"] = (drv1 - drv0).Seconds() / (wall1.Sub(wall0).Seconds() * 2)

	var live map[string]float64
	if tr != nil {
		if live, err = liveLayers(ctx, d, wl, ctl); err != nil {
			return nil, err
		}
	}

	// The correctness gate: flush, then compare counts, synopses and
	// answers with the reference built from the acknowledged batches.
	if err := s.front.post(ctx, "/flush", ""); err != nil {
		return nil, err
	}
	obs, nodeStats, err := observe(ctx, d, wl, ctl)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, sv := range d.procs {
		mb, err := peakRSSMB(sv.pid())
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	out.e2e["server_rss_mb"] = rss
	ref, err := s.led.reference()
	if err != nil {
		return nil, err
	}
	out.problems = verify(ref, obs)
	out.correct = len(out.problems) == 0
	out.attempted, out.failed = cnt.attempted.Load(), cnt.failed.Load()
	out.info["rejected"] = float64(cnt.rejected.Load())
	out.info["acked_updates"] = float64(ref.acked)
	out.info["server_cpu_ns_per_update"] = float64(cpu1-cpu0) / float64(max(ref.acked, 1))
	tenant0 := wl.tenants[0]
	out.info["answer_rel_err"] = ref.tenants[tenant0].relErr(obs.tenants[tenant0].estimate)
	if tr == nil {
		return out, nil
	}

	if out.layers, err = runLadder(cfg, wl, p, ref, tr, root); err != nil {
		return nil, err
	}
	for k, v := range live {
		out.layers[k] = v
	}
	for k, v := range map[string]float64{
		"sketchd.cpu_ns_per_update": out.info["server_cpu_ns_per_update"],
		"sketchd.update_p99_ms":     nodeStats.updateP99ms,
		"engine.cache_miss_ratio":   nodeStats.missRatio,
		"bench.gen_lag_p99_ms":      out.info["gen_lag_p99_ms"],
		"bench.driver_cpu_frac":     out.info["driver_cpu_frac"],
		"bench.ingest_rse":          out.info["ingest_rse"],
		"core.answer_rel_err":       out.info["answer_rel_err"],
	} {
		out.layers[k] = v
	}
	return out, nil
}

// connect opens the load connections and sets s.ingest to send one
// pool batch per request, recording every acknowledgement in the
// ledger. The returned function closes the connections.
func (s *session) connect(ctx context.Context) (func(), error) {
	cnt := s.r.cnt
	if s.wl.proto == "sksp" {
		conn, err := dialSKSP(ctx, s.d.front.sksp)
		if err != nil {
			return nil, err
		}
		s.workers = skspInFlight
		s.ingest = func(ctx context.Context, seq int64) (int, error) {
			return s.acked(seq)(conn.ingest(ctx, seq, s.p.at(seq), cnt))
		}
		return conn.close, nil
	}
	load := api{newHTTPClient(httpConns), s.d.front.url}
	s.workers = httpConns
	s.ingest = func(ctx context.Context, seq int64) (int, error) {
		return s.acked(seq)(load.ingest(ctx, seq, s.p.at(seq), cnt))
	}
	return load.c.CloseIdleConnections, nil
}

// acked records request seq in the ledger when it succeeded.
func (s *session) acked(seq int64) func(int, error) (int, error) {
	return func(n int, err error) (int, error) {
		if err == nil {
			s.led.ack(seq)
		}
		return n, err
	}
}

// measure runs the warm-up, then `rounds` rounds of closed phase, open
// phase and probe, splitting the measured time S by the workload's
// open share.
func (s *session) measure(ctx context.Context, S time.Duration) (*totals, error) {
	wl, r := s.wl, s.r
	r.runClosed(ctx, "phase.warmup", s.root, s.workers, S/10, s.ingest)
	openDur := time.Duration(float64(S) * wl.openShare / rounds)
	closedDur := S/rounds - openDur
	t := &totals{}
	for k := 0; k < rounds && ctx.Err() == nil; k++ {
		c := r.runClosed(ctx, "phase.closed", s.root, s.workers, closedDur, s.ingest)
		t.closedUpdates += c.updates
		t.closedTime += c.elapsed
		t.samples = append(t.samples, c.samples...)
		// Drain the backlog the closed loop left in the ingest queues, so
		// the open phase starts from an idle server.
		if err := s.front.post(ctx, "/flush", ""); err != nil {
			return nil, err
		}
		o := s.openPhase(ctx, openDur)
		t.lat = append(t.lat, o.lat...)
		t.lag = append(t.lag, o.lag...)
		if wl.answers == answerProbe {
			sp := s.tr.start("phase.probe", s.root, -1)
			for i := 0; i < probeRounds/rounds && ctx.Err() == nil; i++ {
				s.answerRound(ctx, sp)
			}
			sp.finish()
		}
	}
	return t, ctx.Err()
}

// openPhase sends the workload's open-loop load for d, with the /stats
// scraper and the answer client running alongside when the workload has
// them.
func (s *session) openPhase(ctx context.Context, d time.Duration) openResult {
	wl, r := s.wl, s.r
	side, stopSide := context.WithCancel(ctx)
	var wg sync.WaitGroup
	if wl.scrape {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-side.Done():
					return
				case <-tick.C:
					_, _ = r.call(ctx, "stats", s.root, -1, func(ctx context.Context, _ int64) (int, error) {
						var st map[string]any
						return 0, s.front.getJSON(ctx, "/stats", &st)
					})
				}
			}
		}()
	}
	switch wl.answers {
	case answerClosed:
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := s.tr.start("phase.answers", s.root, -1)
			defer sp.finish()
			for side.Err() == nil {
				s.answerRound(ctx, sp)
			}
		}()
	case answerOpen:
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.runOpen(ctx, "phase.answers", s.root, 2, wl.answerRate, int(wl.answerRate*d.Seconds()), func(ctx context.Context, _ int64) (int, error) {
				_, err := s.answers.answer(ctx, wl.tenants[0])
				return 0, err
			})
			s.mu.Lock()
			s.answerLat = append(s.answerLat, res.lat...)
			s.mu.Unlock()
		}()
	}
	reqRate := wl.openUPS / float64(wl.batch)
	o := r.runOpen(ctx, "phase.open", s.root, s.workers, reqRate, int(reqRate*d.Seconds()), s.ingest)
	stopSide()
	wg.Wait()
	return o
}

// answerRound posts one JSON batch on the answer connections, so the
// answer that follows cannot come from the cache, then asks /answer for
// that batch's tenant. Only the answer is timed.
func (s *session) answerRound(ctx context.Context, parent *span) {
	r := s.r
	seq := r.seq.Add(1) - 1
	b := s.p.at(seq)
	if _, err := r.call(ctx, "update", parent, seq, func(ctx context.Context, seq int64) (int, error) {
		return s.acked(seq)(s.answers.ingest(ctx, seq, b, r.cnt))
	}); err != nil {
		return
	}
	t0 := time.Now()
	if _, err := r.call(ctx, "answer", parent, -1, func(ctx context.Context, _ int64) (int, error) {
		_, err := s.answers.answer(ctx, b.tenant)
		return 0, err
	}); err != nil {
		return
	}
	s.mu.Lock()
	s.answerLat = append(s.answerLat, time.Since(t0))
	s.mu.Unlock()
}
