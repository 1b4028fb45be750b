package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op performs request seq to completion, retries included, and returns
// how many updates it got acknowledged.
type op func(ctx context.Context, seq int64) (int, error)

// opTimeout bounds one request, retries included; a request that takes
// longer counts as failed.
const opTimeout = 30 * time.Second

// runner drives ops against a server and tallies their outcomes. seq
// hands out request ids; they are unique across all phases of a run.
type runner struct {
	cnt *counters
	seq atomic.Int64
	tr  *tracer
}

// call runs one op under its timeout, records its span and counts it.
func (r *runner) call(ctx context.Context, name string, parent *span, seq int64, do op) (int, error) {
	r.cnt.attempted.Add(1)
	sp := r.tr.start(name, parent, seq)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	n, err := do(ctx, seq)
	cancel()
	sp.finish()
	if err != nil {
		r.cnt.failed.Add(1)
	}
	return n, err
}

// closedResult is what a closed loop measured.
type closedResult struct {
	updates int64         // acknowledged before the loop ended
	elapsed time.Duration // from start to the end of measurement
	samples []float64     // updates/s in consecutive one-second windows
}

// runClosed keeps `workers` requests in flight, each sent as soon as the
// previous one of its worker completes, until d has passed. Requests
// still in flight at the end complete but are not counted.
func (r *runner) runClosed(ctx context.Context, name string, parent *span, workers int, d time.Duration, do op) closedResult {
	sp := r.tr.start(name, parent, -1)
	defer sp.finish()
	var acked atomic.Int64
	stop := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := r.call(ctx, "request", sp, r.seq.Add(1)-1, do)
				if err != nil {
					return
				}
				acked.Add(int64(n))
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	// Sample the acknowledged count once a second; the jolt-style
	// relative standard error of these samples is the throughput's noise.
	var res closedResult
	deadline := start.Add(d)
	last, lastAt := int64(0), start
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	done := false
	for !done {
		var now time.Time
		select {
		case now = <-tick.C:
		case <-time.After(time.Until(deadline)):
			now, done = time.Now(), true
		case <-finished:
			now, done = time.Now(), true
		case <-ctx.Done():
			now, done = time.Now(), true
		}
		cur := acked.Load()
		if dt := now.Sub(lastAt).Seconds(); dt >= 0.5 {
			res.samples = append(res.samples, float64(cur-last)/dt)
		}
		last, lastAt = cur, now
		res.updates, res.elapsed = cur, now.Sub(start)
		if !now.Before(deadline) {
			done = true
		}
	}
	close(stop)
	<-finished
	return res
}

// openResult is what an open loop measured. lat and lag have one entry
// per request, in schedule order.
type openResult struct {
	start time.Time       // request i was due at start + i/rate
	lat   []time.Duration // completion minus due time; failed requests are +Inf
	lag   []time.Duration // send time minus due time
}

// failedLatency stands for a request that never completed: it misses
// every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// runOpen issues n requests on a fixed schedule, request i due at
// start + i/rate, with at most `workers` in flight. A request is timed
// from its due time, so when the server or the sender stalls, every
// request queued behind the stall is charged for it. There is no token
// bucket: a late dispatcher sends at once, it never skips.
func (r *runner) runOpen(ctx context.Context, name string, parent *span, workers int, rate float64, n int, do op) openResult {
	sp := r.tr.start(name, parent, -1)
	defer sp.finish()
	res := openResult{lat: make([]time.Duration, n), lag: make([]time.Duration, n)}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res.lag[j.i] = time.Since(j.due)
				if _, err := r.call(ctx, "request", sp, r.seq.Add(1)-1, do); err != nil {
					res.lat[j.i] = failedLatency
					continue
				}
				res.lat[j.i] = time.Since(j.due)
			}
		}()
	}
	res.start = time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := res.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return res
}

// quantile returns the q-quantile of xs by the nearest-rank method.
// It sorts xs in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// relStdErr is the standard error of the mean of xs over the mean.
func relStdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return sd / math.Sqrt(float64(len(xs))) / mean
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
