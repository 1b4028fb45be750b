package monitor

import (
	"strings"
	"testing"
)

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(WatchKey{Tenant: "", Query: "q"}, WatchConfig{High: 1}); err == nil {
		t.Error("empty tenant accepted")
	}
	if err := r.Register(WatchKey{Tenant: "t", Query: ""}, WatchConfig{High: 1}); err == nil {
		t.Error("empty query accepted")
	}
	if err := r.Register(WatchKey{Tenant: "t", Query: "q"}, WatchConfig{High: 5, Low: 9}); err == nil ||
		!strings.Contains(err.Error(), "watermark") {
		t.Errorf("inverted watermarks: %v", err)
	}
	key := WatchKey{Tenant: "t", Query: "q"}
	if err := r.Register(key, WatchConfig{High: 10, Low: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(key, WatchConfig{High: 99, Low: 0}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Restore(key, WatchConfig{High: 1}, State(42)); err == nil {
		t.Error("unknown state accepted")
	}
}

func TestRegistryHysteresis(t *testing.T) {
	r := NewRegistry()
	key := WatchKey{Tenant: "t", Query: "q"}
	if err := r.Register(key, WatchConfig{High: 100, Low: 40}); err != nil {
		t.Fatal(err)
	}
	// estimate, want state, want transition on this observation
	steps := []struct {
		est        int64
		want       State
		transition bool
	}{
		{50, Normal, false}, // between Low and High from Normal: stay
		{100, Alert, true},  // reaching High raises
		{60, Alert, false},  // falling into the band holds the alert
		{41, Alert, false},  // just above Low still holds
		{40, Normal, true},  // reaching Low clears
		{99, Normal, false}, // just under High stays normal
		{500, Alert, true},  // overshoot raises again
		{-10, Normal, true}, // deletions can drive the mass below Low
	}
	for i, s := range steps {
		st, flipped, err := r.Observe(key, s.est)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != s.want || flipped != s.transition {
			t.Fatalf("step %d (est %d): state %v flipped %v, want %v/%v",
				i, s.est, st.State, flipped, s.want, s.transition)
		}
		if st.LastEstimate != s.est {
			t.Fatalf("step %d: LastEstimate %d, want %d", i, st.LastEstimate, s.est)
		}
	}
	st, _ := r.Get(key)
	if st.Evaluations != int64(len(steps)) || st.Transitions != 4 {
		t.Fatalf("counters: %d evaluations %d transitions, want %d/4", st.Evaluations, st.Transitions, len(steps))
	}
}

func TestRegistryRestorePreservesAlert(t *testing.T) {
	r := NewRegistry()
	key := WatchKey{Tenant: "t", Query: "q"}
	if err := r.Restore(key, WatchConfig{High: 10, Low: 2}, Alert); err != nil {
		t.Fatal(err)
	}
	// An in-band estimate right after restore must NOT re-fire the raise
	// transition: the alert predates the restart.
	st, flipped, err := r.Observe(key, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Alert || flipped {
		t.Fatalf("restored alert did not hold: state %v flipped %v", st.State, flipped)
	}
}

func TestRegistryTenantIsolation(t *testing.T) {
	r := NewRegistry()
	a := WatchKey{Tenant: "alice", Query: "q"}
	b := WatchKey{Tenant: "bob", Query: "q"}
	if err := r.Register(a, WatchConfig{High: 10, Low: 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(b, WatchConfig{High: 10, Low: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Observe(a, 50); err != nil {
		t.Fatal(err)
	}
	stA, _ := r.Get(a)
	stB, _ := r.Get(b)
	if stA.State != Alert || stB.State != Normal {
		t.Fatalf("same query name shared alert state across tenants: alice %v bob %v", stA.State, stB.State)
	}
	if got := r.Tenants(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Tenants() = %v", got)
	}
	if got := r.List("alice"); len(got) != 1 || got[0].Tenant != "alice" {
		t.Fatalf("List(alice) = %+v", got)
	}
	if !r.Remove(a) {
		t.Fatal("Remove existing watch reported false")
	}
	if r.Remove(a) {
		t.Fatal("Remove missing watch reported true")
	}
	if r.Len() != 1 {
		t.Fatalf("Len() = %d after removing alice", r.Len())
	}
	if _, _, err := r.Observe(a, 1); err == nil {
		t.Fatal("Observe on removed watch succeeded")
	}
}

func TestRegistryListSorted(t *testing.T) {
	r := NewRegistry()
	for _, q := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(WatchKey{Tenant: "t", Query: q}, WatchConfig{High: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := r.List("t")
	if len(got) != 3 || got[0].Query != "alpha" || got[1].Query != "mid" || got[2].Query != "zeta" {
		t.Fatalf("List not sorted by query: %+v", got)
	}
}

func TestStateString(t *testing.T) {
	if Normal.String() != "normal" || Alert.String() != "ALERT" {
		t.Fatal("state names")
	}
}
