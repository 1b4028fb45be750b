package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stallSender is a transport with one ordered write side, like an SKSP
// connection: when it stalls, every request behind it waits.
type stallSender struct {
	mu         sync.Mutex
	stallSeq   int64
	stall      time.Duration
	start, end time.Time // when the stall began and ended
}

func (s *stallSender) op(_ context.Context, seq int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq == s.stallSeq && s.stall > 0 {
		s.start = time.Now()
		time.Sleep(s.stall)
		s.end = time.Now()
	}
	return 1, nil
}

func TestOpenLoopChargesStall(t *testing.T) {
	const rate, n = 2000.0, 1000
	open := func(stall time.Duration) (openResult, *stallSender) {
		s := &stallSender{stallSeq: 300, stall: stall}
		r := &runner{cnt: &counters{}}
		return r.runOpen(context.Background(), "open", nil, skspInFlight, rate, n, s.op), s
	}
	calm, _ := open(0)
	res, s := open(50 * time.Millisecond)

	charged := 0
	for i, lat := range res.lat {
		due := res.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.Before(s.start) || !due.Before(s.end) {
			continue
		}
		charged++
		if left := s.end.Sub(due); lat < left {
			t.Errorf("request %d, due %v before the stall ended, was timed at %v", i, left, lat)
		}
	}
	if charged < 50 {
		t.Fatalf("only %d requests were due during a 50ms stall at %v/s", charged, rate)
	}
	calmLag, stallLag := quantile(calm.lag, 0.99), quantile(res.lag, 0.99)
	if stallLag < 20*time.Millisecond || stallLag <= calmLag {
		t.Errorf("generator lag p99 %v with the stall, %v without: the stall did not raise it", stallLag, calmLag)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(100 - i) // unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
