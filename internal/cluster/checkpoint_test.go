package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
		if err := n.RegisterPredicate(ctx, tenant, serve.PredicateReq{Name: "low", Predicate: engine.Predicate{Max: 31}}); err != nil {
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

// editJSON decodes doc, lets edit change it, and encodes it again.
// Numbers stay json.Numbers, so no integer is rounded through a float.
func editJSON(t *testing.T, doc []byte, edit func(map[string]any)) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	edit(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// snapshotOf is n's engine snapshot: the checkpoint payload sketchd
// saves.
func snapshotOf(t *testing.T, n *Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyV2Payload assembles predicateNode's checkpoint as nodes wrote
// it before engine snapshots carried predicates: version 2, predicates
// with tenant fields and the default tenant spelled "", and a two-tenant
// engine snapshot without them.
func legacyV2Payload(t *testing.T, n *Node) []byte {
	t.Helper()
	eng := editJSON(t, snapshotOf(t, n), func(snap map[string]any) {
		for _, slice := range snap["tenants"].(map[string]any) {
			delete(slice.(map[string]any), "predicates")
		}
	})
	return fmt.Appendf(nil, `{"version":2,"predicates":[{"name":"low","min":0,"max":31},`+
		`{"tenant":"acme","name":"low","min":0,"max":31}],"engine":%s}`, eng)
}

// TestNodeCheckpointRoundTripsTenantPredicates: the engine snapshot
// sketchd checkpoints, and the legacy version-2 payload, each restore
// both tenants' answers into a fresh node bit-identically.
func TestNodeCheckpointRoundTripsTenantPredicates(t *testing.T) {
	src := predicateNode(t)
	for name, payload := range map[string][]byte{
		"engine snapshot": snapshotOf(t, src),
		"legacy v2":       legacyV2Payload(t, src),
	} {
		dst := NewNode(newTestEngine(t))
		if err := dst.ReadCheckpoint(bytes.NewReader(payload)); err != nil {
			t.Fatalf("%s: %v", name, err)
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
				t.Fatalf("%s, %s: restored answer %+v, want %+v", name, tenant, got, want)
			}
		}
	}
}

// TestNodeReadCheckpointRefusals: a legacy payload of an unknown
// version, one whose predicate definition the node refuses, or one that
// does not decode, is an error even when its engine snapshot would
// restore, and leaves the engine empty. A refused engine snapshot also
// leaves no predicate registered, not even one of a tenant slice that
// restored before the failing one.
func TestNodeReadCheckpointRefusals(t *testing.T) {
	src := predicateNode(t)
	legacy := legacyV2Payload(t, src)
	for name, bad := range map[string][]byte{
		"version 99": editJSON(t, legacy, func(cp map[string]any) { cp["version"] = 99 }),
		"max below min": editJSON(t, legacy, func(cp map[string]any) {
			cp["predicates"] = append(cp["predicates"].([]any), map[string]any{"name": "bad", "min": 9, "max": 1})
		}),
		// The engine snapshot here carries its predicates, so it would
		// restore if the decoder skipped the mistyped field.
		"predicates not a list": fmt.Appendf(nil, `{"version":2,"predicates":"low","engine":%s}`, snapshotOf(t, src)),
		// Tenants restore in name order: "acme" before "default".
		"engine snapshot": editJSON(t, snapshotOf(t, src), func(snap map[string]any) {
			def := snap["tenants"].(map[string]any)[engine.DefaultTenant].(map[string]any)
			def["streams"].(map[string]any)["F"].(map[string]any)["domain"] = 0
		}),
	} {
		n := NewNode(newTestEngine(t))
		if err := n.ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadCheckpoint accepted the payload", name)
		}
		if st := n.eng.Stats(); st.Streams != 0 {
			t.Errorf("%s: refused checkpoint left %d streams", name, st.Streams)
		}
		if name != "engine snapshot" {
			continue // a legacy payload registers its predicates first
		}
		for _, tenant := range []string{engine.DefaultTenant, "acme"} {
			if err := n.RegisterPredicate(context.Background(), tenant, serve.PredicateReq{Name: "low", Predicate: engine.Predicate{Max: 7}}); err != nil {
				t.Errorf("%s: refused checkpoint left a predicate in %s: %v", name, tenant, err)
			}
		}
	}
}
