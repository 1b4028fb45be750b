package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
)

// TestNodeConcurrentSameKeyAppliesOnce: deliveries of one (client, seq)
// that race each other into IngestGroups apply once. Each round starts
// four deliveries of a fresh seq at once; exactly one of them is
// admitted, the others answer as duplicates with its applied count, and
// after the last round F has seen one update per round.
func TestNodeConcurrentSameKeyAppliesOnce(t *testing.T) {
	eng := newTestEngine(t)
	if err := eng.Tenant(engine.DefaultTenant).DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	n := NewNode(eng)
	const rounds, deliveries = 2000, 4
	groups := []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 7, Weight: 1}}}}
	for r := 0; r < rounds; r++ {
		key := serve.Key{Client: "racer", Seq: uint64(r)}
		start := make(chan struct{})
		admitted := make(chan bool, deliveries)
		var wg sync.WaitGroup
		for i := 0; i < deliveries; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				applied, dup, err := n.IngestGroups(context.Background(), engine.DefaultTenant, key, groups, nil)
				if err != nil || applied != 1 {
					t.Errorf("round %d: applied %d, err %v; want 1, nil", r, applied, err)
				}
				admitted <- !dup
			}()
		}
		close(start)
		wg.Wait()
		close(admitted)
		fresh := 0
		for a := range admitted {
			if a {
				fresh++
			}
		}
		if fresh != 1 {
			t.Fatalf("round %d: %d of %d concurrent deliveries of one key were admitted, want 1", r, fresh, deliveries)
		}
	}
	eng.Flush()
	if got := eng.Tenant(engine.DefaultTenant).Stats().UpdateCounts["F"]; got != rounds {
		t.Fatalf("F counted %d updates after %d rounds, want %d", got, rounds, rounds)
	}
}

// TestNodeFailedAdmissionReleasesClaim: a keyed delivery the engine
// refuses (here, before its pipeline starts) releases the key's claim,
// so the same key applies once the retry can be admitted.
func TestNodeFailedAdmissionReleasesClaim(t *testing.T) {
	eng, err := engine.New(engine.Options{SketchConfig: testCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Tenant(engine.DefaultTenant).DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	n := NewNode(eng)
	key := serve.Key{Client: "retry", Seq: 1}
	groups := []stream.Group{{Name: "F", Updates: []stream.Update{{Value: 7, Weight: 1}}}}
	if _, _, err := n.IngestGroups(context.Background(), engine.DefaultTenant, key, groups, nil); !errors.Is(err, engine.ErrNotIngesting) {
		t.Fatalf("delivery before StartIngest: err %v, want ErrNotIngesting", err)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.StopIngest)
	type result struct {
		applied int64
		dup     bool
		err     error
	}
	done := make(chan result, 1)
	go func() {
		applied, dup, err := n.IngestGroups(context.Background(), engine.DefaultTenant, key, groups, nil)
		done <- result{applied, dup, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.applied != 1 || r.dup {
			t.Fatalf("retry: applied %d, duplicate %v, err %v; want 1, false, nil", r.applied, r.dup, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the retry is still waiting on the failed delivery's claim")
	}
}
