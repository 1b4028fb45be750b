package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/engine"
	"skimsketch/internal/hashfam"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// sink keeps the results of timed calls alive so the compiler cannot
// drop the calls.
var sink int64

// ladderReps is how many times each in-process measurement repeats; the
// median is reported.
const ladderReps = 5

// medianOf runs fn reps times and returns the median of what it
// reports.
func medianOf(reps int, fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// timed returns how long fn took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// nsPer is the median over ladderReps runs of fn of its ns per unit,
// for an fn that does n units of work.
func nsPer(n int, fn func()) float64 {
	return medianOf(ladderReps, func() float64 { return float64(timed(fn).Nanoseconds()) / float64(n) })
}

// ladder collects the per-layer metrics of a traced run, each measured
// inside its own span.
type ladder struct {
	tr *tracer
	sp *span
	m  map[string]float64
}

func (l *ladder) step(name string, fn func() error) error {
	s := l.tr.start("ladder."+name, l.sp, -1)
	defer s.finish()
	if err := fn(); err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	return nil
}

// runLadder times the repository's layers in process, on the run's own
// inputs and final state: hash → UpdateBatch → decode → admission and
// pipeline, the query path (clone, skim, subjoin, answer) and what a
// cluster ships (marshal, payload decode, merge).
func runLadder(cfg *config, wl *workload, p *pool, ref *reference, tr *tracer, root *span) (map[string]float64, error) {
	l := &ladder{tr: tr, sp: tr.start("ladder", root, -1), m: map[string]float64{}}
	defer l.sp.finish()
	for _, part := range []func(*ladder, *config, *workload, *pool, *reference) error{updateLadder, queryLadder, engineLadder} {
		if err := part(l, cfg, wl, p, ref); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// updateLadder times the update path below the engine: the hash
// families, UpdateBatch and SKSP frame decoding.
func updateLadder(l *ladder, _ *config, _ *workload, p *pool, _ *reference) error {
	var values []uint64
	for i := range p.batches {
		for _, u := range p.batches[i].groups[0].Updates {
			values = append(values, u.Value)
		}
	}
	// Hash calls repeat over the values until about a million are timed.
	rounds := 1 + 1_000_000/len(values)
	ss := hashfam.NewSeedStream(sketchConfig.Seed)
	h, x := hashfam.NewPairwise(ss), hashfam.NewFourWise(ss)
	err := l.step("hashfam", func() error {
		l.m["hashfam.sign_ns"] = nsPer(rounds*len(values), func() {
			var acc int64
			for r := 0; r < rounds; r++ {
				for _, v := range values {
					acc += x.Sign(v)
				}
			}
			sink += acc
		})
		l.m["hashfam.bucket_ns"] = nsPer(rounds*len(values), func() {
			acc := 0
			for r := 0; r < rounds; r++ {
				for _, v := range values {
					acc += h.Bucket(v, sketchConfig.Buckets)
				}
			}
			sink += int64(acc)
		})
		return nil
	})
	if err != nil {
		return err
	}
	err = l.step("core.update", func() error {
		sk, err := core.NewHashSketch(sketchConfig)
		if err != nil {
			return err
		}
		l.m["core.update_ns"] = nsPer(len(values), func() {
			for i := range p.batches {
				sk.UpdateBatch(p.batches[i].groups[0].Updates)
			}
		})
		return nil
	})
	if err != nil {
		return err
	}
	return l.step("wire.decode", func() error {
		payloads, updates, size, err := framePayloads(p)
		if err != nil {
			return err
		}
		var d wire.Data
		var decErr error
		l.m["wire.decode_ns"] = nsPer(updates, func() {
			for _, pl := range payloads {
				if err := wire.DecodeData(pl, &d); err != nil {
					decErr = err
				}
			}
		})
		l.m["wire.bytes_per_update"] = float64(size) / float64(updates)
		return decErr
	})
}

// framePayloads encodes every pool batch as an SKSP DATA frame and
// returns the frame payloads, the updates they carry and their total
// size in bytes.
func framePayloads(p *pool) (payloads [][]byte, updates, size int, err error) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteHeader(); err != nil {
		return nil, 0, 0, err
	}
	for i := range p.batches {
		b := &p.batches[i]
		if err := w.WriteData(&wire.Data{ClientID: clientID, Seq: uint64(i), Tenant: b.tenant, Groups: b.groups}); err != nil {
			return nil, 0, 0, err
		}
		updates += b.size()
	}
	if err := w.Flush(); err != nil {
		return nil, 0, 0, err
	}
	rd := wire.NewReader(&buf)
	if err := rd.ReadHeader(); err != nil {
		return nil, 0, 0, err
	}
	for range p.batches {
		_, pl, err := rd.Next()
		if err != nil {
			return nil, 0, 0, err
		}
		payloads = append(payloads, append([]byte(nil), pl...))
		size += len(pl)
	}
	return payloads, updates, size, nil
}

// queryLadder times the query path on the reference's final state.
func queryLadder(l *ladder, _ *config, wl *workload, _ *pool, ref *reference) error {
	tref := ref.tenants[wl.tenants[0]]
	f, g := tref.f, tref.g
	skim := func(sk *core.HashSketch) (*core.HashSketch, stream.FreqVector, time.Duration, error) {
		c := sk.Clone()
		var dense stream.FreqVector
		var err error
		d := timed(func() { dense, err = c.SkimDenseParallel(ref.domain, sk.DefaultSkimThreshold(), wl.queryWorkers) })
		return c, dense, d, err
	}
	err := l.step("core.skim", func() error {
		var skimErr error
		l.m["core.skim_ms"] = medianOf(3, func() float64 {
			_, _, d, err := skim(f)
			if err != nil {
				skimErr = err
			}
			return ms(d)
		})
		return skimErr
	})
	if err != nil {
		return err
	}
	err = l.step("core.subjoin", func() error {
		fs, fd, _, err := skim(f)
		if err != nil {
			return err
		}
		gs, gd, _, err := skim(g)
		if err != nil {
			return err
		}
		var estErr error
		l.m["core.subjoin_ms"] = medianOf(ladderReps, func() float64 {
			return ms(timed(func() {
				e, err := core.EstimateJoinSkimmed(fs, gs, fd, gd)
				if err != nil {
					estErr = err
				}
				sink += e.Total
			}))
		})
		return estErr
	})
	if err != nil {
		return err
	}
	blob, err := cluster.EncodePayload(&cluster.Payload{Agg: cluster.AggCount, Domain: ref.domain, Left: f, Right: g})
	if err != nil {
		return err
	}
	const small = 50 // repetitions of the microsecond-scale calls
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"core.clone_us", func() error { sink += f.Clone().NetCount(); return nil }},
		{"core.marshal_us", func() error { b, err := f.MarshalBinary(); sink += int64(len(b)); return err }},
		{"cluster.payload_decode_us", func() error { _, err := cluster.DecodePayload(blob); return err }},
		{"distributed.merge_us", func() error { _, err := distributed.Merge(f, g, f); return err }},
	} {
		err := l.step(c.name, func() error {
			var callErr error
			l.m[c.name] = medianOf(small, func() float64 {
				return float64(timed(func() {
					if err := c.fn(); err != nil {
						callErr = err
					}
				})) / float64(time.Microsecond)
			})
			return callErr
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// engineLadder times the engine in process with sketchd's settings:
// admission and the 2-worker pipeline with its flush, reads under load,
// a cache-missing answer and a checkpoint of the final state.
func engineLadder(l *ladder, cfg *config, wl *workload, p *pool, _ *reference) error {
	eng, err := engine.New(engine.Options{SketchConfig: sketchConfig, QueryWorkers: wl.queryWorkers})
	if err != nil {
		return err
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 2, BatchSize: 256, QueueDepth: 64}); err != nil {
		return err
	}
	defer eng.StopIngest()
	for _, t := range wl.tenants {
		ten := eng.Tenant(tenantName(t))
		for _, s := range []string{"F", "G"} {
			if err := ten.DeclareStream(s, wl.domain); err != nil {
				return err
			}
		}
		if err := ten.RegisterQuery(engine.QuerySpec{Name: "q", Agg: engine.Count, Left: engine.Side{Stream: "F"}, Right: engine.Side{Stream: "G"}}); err != nil {
			return err
		}
	}
	ingestPool := func() error {
		for i := range p.batches {
			b := &p.batches[i]
			if err := eng.Tenant(tenantName(b.tenant)).IngestGroups(b.groups, nil); err != nil {
				return err
			}
		}
		return nil
	}

	err = l.step("engine.pipeline", func() error {
		total := float64(len(p.batches) * wl.batch)
		var admit, flush, ups []float64
		for r := 0; r < ladderReps; r++ {
			var ingestErr error
			da := timed(func() { ingestErr = ingestPool() })
			if ingestErr != nil {
				return ingestErr
			}
			df := timed(eng.Flush)
			admit = append(admit, float64(da.Nanoseconds())/total)
			flush = append(flush, ms(df))
			ups = append(ups, total/(da+df).Seconds())
		}
		l.m["engine.admit_ns"], l.m["engine.flush_ms"], l.m["engine.pipeline_ups"] = median(admit), median(flush), median(ups)
		return nil
	})
	if err != nil {
		return err
	}

	// Reads under load: a background writer keeps the pipeline busy.
	ten := eng.Tenant(tenantName(wl.tenants[0]))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bgErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ingestPool(); err != nil {
				bgErr = err
				return
			}
		}
	}()
	const loaded = 20 // reads timed under load
	err = l.step("engine.reads", func() error {
		var qsErr error
		l.m["engine.snapshot_clone_ms"] = medianOf(loaded, func() float64 {
			return ms(timed(func() {
				if _, err := ten.QuerySketches("q"); err != nil {
					qsErr = err
				}
			}))
		})
		l.m["engine.stats_ms"] = medianOf(loaded, func() float64 {
			return ms(timed(func() { sink += int64(eng.Stats().Queries) }))
		})
		return qsErr
	})
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if bgErr != nil {
		return bgErr
	}

	// Each answer follows one more batch, so none is served from the
	// answer cache.
	err = l.step("engine.answer", func() error {
		var ansErr error
		l.m["engine.answer_ms"] = medianOf(3, func() float64 {
			if err := ten.IngestGroups(p.at(0).groups, nil); err != nil {
				ansErr = err
			}
			return ms(timed(func() {
				a, err := ten.Answer("q")
				if err != nil {
					ansErr = err
				}
				sink += a.Estimate
			}))
		})
		return ansErr
	})
	if err != nil {
		return err
	}

	return l.step("checkpoint", func() error {
		dir, err := os.MkdirTemp(cfg.tmp, "checkpoint-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		mgr, err := checkpoint.NewManager(dir)
		if err != nil {
			return err
		}
		var saveErr error
		l.m["checkpoint.save_ms"] = medianOf(3, func() float64 {
			return ms(timed(func() {
				if err := mgr.Save(eng.Snapshot); err != nil {
					saveErr = err
				}
			}))
		})
		if saveErr != nil {
			return saveErr
		}
		fi, err := os.Stat(mgr.CurrentPath())
		if err != nil {
			return err
		}
		l.m["checkpoint.bytes"] = float64(fi.Size())
		return nil
	})
}

// tenantName maps the pool's "" to the engine's default tenant.
func tenantName(t string) string {
	if t == "" {
		return engine.DefaultTenant
	}
	return t
}

// liveLayers measures the running servers before the gate: how long a
// /sketch pull takes when every data node is asked at once (the slowest
// sets the round, as for a merger's pull), and the /healthz round trip,
// the floor under every acknowledgement.
func liveLayers(ctx context.Context, d *deployment, wl *workload, ctl *http.Client) (map[string]float64, error) {
	const rounds = 30
	path := tenantPath(wl.tenants[0], "/sketch?query=q")
	var pulls []time.Duration
	for r := 0; r < rounds; r++ {
		errs := make([]error, len(d.nodes))
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, s := range d.nodes {
			wg.Add(1)
			go func(i int, s *server) {
				defer wg.Done()
				status, _, err := (api{ctl, s.url}).do(ctx, http.MethodGet, path, nil, nil)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d", path, status)
				}
				errs[i] = err
			}(i, s)
		}
		wg.Wait()
		pulls = append(pulls, time.Since(t0))
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var rtts []float64
	front := api{ctl, d.front.url}
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		status, _, err := front.do(ctx, http.MethodGet, "/healthz", nil, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("/healthz: status %d", status)
		}
		rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return map[string]float64{
		"cluster.shard_sketch_p90_ms": ms(quantile(pulls, 0.90)),
		"sketchd.healthz_rtt_us":      median(rtts),
	}, nil
}
