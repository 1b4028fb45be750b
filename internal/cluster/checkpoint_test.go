package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"skimsketch/internal/engine"
	"skimsketch/internal/serve"
	"skimsketch/internal/stream"
)

// predicateNode is a node with the predicate "low" = [0, 31] in the
// default tenant and in tenant "acme", each used by a query q over F and
// G that has seen a few updates.
func predicateNode(t *testing.T) *Node {
	t.Helper()
	n := NewNode(newTestEngine(t))
	ctx := context.Background()
	for _, tenant := range []string{engine.DefaultTenant, "acme"} {
		if err := n.RegisterPredicate(ctx, tenant, serve.PredicateReq{Name: "low", Min: 0, Max: 31}); err != nil {
			t.Fatal(err)
		}
		tn := n.eng.Tenant(tenant)
		for _, s := range []string{"F", "G"} {
			if err := tn.DeclareStream(s, 64); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.RegisterQuery(engine.QuerySpec{Name: "q",
			Left: engine.Side{Stream: "F", Predicate: "low"}, Right: engine.Side{Stream: "G"}}); err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v < 64; v += 3 {
			for _, s := range []string{"F", "G"} {
				if err := tn.IngestBatch(s, []stream.Update{{Value: v, Weight: 1}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return n
}

// TestNodeCheckpointRoundTripsTenantPredicates: a checkpoint carries each
// predicate under its own tenant, with the default tenant spelled "", and
// restores both tenants' answers into a fresh node.
func TestNodeCheckpointRoundTripsTenantPredicates(t *testing.T) {
	src := predicateNode(t)
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var cp checkpointPayload
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Predicates) != 2 || cp.Predicates[0].Tenant != "" || cp.Predicates[1].Tenant != "acme" {
		t.Fatalf("checkpoint predicates %+v, want low in \"\" and in acme", cp.Predicates)
	}
	dst := NewNode(newTestEngine(t))
	if err := dst.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{engine.DefaultTenant, "acme"} {
		want, err := src.eng.Tenant(tenant).Answer("q")
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.eng.Tenant(tenant).Answer("q")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: restored answer %+v, want %+v", tenant, got, want)
		}
	}
}

// TestNodeReadCheckpointRefusals: a payload of an unknown version, one
// whose predicate definition the node refuses, or one that does not
// decode, is an error even when its engine snapshot would restore, and
// leaves the engine empty.
func TestNodeReadCheckpointRefusals(t *testing.T) {
	var good bytes.Buffer
	if err := predicateNode(t).WriteCheckpoint(&good); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*checkpointPayload){
		"version 99": func(cp *checkpointPayload) { cp.Version = 99 },
		"max below min": func(cp *checkpointPayload) {
			cp.Predicates = append(cp.Predicates, serve.PredicateReq{Name: "bad", Min: 9, Max: 1})
		},
	} {
		var cp checkpointPayload
		if err := json.Unmarshal(good.Bytes(), &cp); err != nil {
			t.Fatal(err)
		}
		edit(&cp)
		bad, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(newTestEngine(t))
		if err := n.ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadCheckpoint accepted the payload", name)
		}
		if st := n.eng.Stats(); st.Streams != 0 {
			t.Errorf("%s: refused checkpoint left %d streams", name, st.Streams)
		}
	}
	// A field of the wrong type fails the decode even though the
	// decoder fills in the fields around it, here an engine snapshot
	// that needs no predicate.
	plain := NewNode(newTestEngine(t))
	if err := plain.eng.Tenant(engine.DefaultTenant).DeclareStream("F", 64); err != nil {
		t.Fatal(err)
	}
	good.Reset()
	if err := plain.WriteCheckpoint(&good); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(good.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["predicates"] = json.RawMessage(`"low"`)
	bad, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(newTestEngine(t))
	if err := n.ReadCheckpoint(bytes.NewReader(bad)); err == nil || n.eng.Stats().Streams != 0 {
		t.Fatalf("checkpoint with a string for predicates: err %v, %d streams", err, n.eng.Stats().Streams)
	}
}

// TestNodeRegisterPredicateRecordsOnlyWhatItRegisters: re-registering an
// identical definition is a no-op, a conflicting one is refused naming
// the registered range, and a name the engine already holds is refused
// without being recorded for the checkpoint.
func TestNodeRegisterPredicateRecordsOnlyWhatItRegisters(t *testing.T) {
	n := NewNode(newTestEngine(t))
	ctx := context.Background()
	low := serve.PredicateReq{Name: "low", Min: 0, Max: 31}
	for i := 0; i < 2; i++ {
		if err := n.RegisterPredicate(ctx, engine.DefaultTenant, low); err != nil {
			t.Fatalf("registration %d: %v", i+1, err)
		}
	}
	if err := n.RegisterPredicate(ctx, engine.DefaultTenant, serve.PredicateReq{Name: "low", Min: 0, Max: 7}); err == nil ||
		!strings.Contains(err.Error(), "[0,31]") {
		t.Fatalf("conflicting definition: %v, want a refusal naming [0,31]", err)
	}
	if err := n.eng.Tenant(engine.DefaultTenant).RegisterPredicate("direct", func(uint64, int64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterPredicate(ctx, engine.DefaultTenant, serve.PredicateReq{Name: "direct", Min: 1, Max: 2}); err == nil {
		t.Fatal("node registered a name the engine already holds")
	}
	var buf bytes.Buffer
	if err := n.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var cp checkpointPayload
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Predicates) != 1 || cp.Predicates[0] != low {
		t.Fatalf("checkpoint predicates %+v, want only %+v", cp.Predicates, low)
	}
}

// TestNodeCheckpointWhileRegistering: checkpoints written while
// predicates are being registered read the definitions under the lock
// (the race detector checks).
func TestNodeCheckpointWhileRegistering(t *testing.T) {
	n := NewNode(newTestEngine(t))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				def := serve.PredicateReq{Name: fmt.Sprintf("p%d-%d", g, i), Max: uint64(i)}
				if err := n.RegisterPredicate(context.Background(), engine.DefaultTenant, def); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := n.WriteCheckpoint(new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
