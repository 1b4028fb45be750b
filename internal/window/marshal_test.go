package window

import (
	"bytes"
	"testing"

	"skimsketch/internal/workload"
)

func TestWindowMarshalRoundTrip(t *testing.T) {
	c := cfg(5, 32, 9)
	w := MustNew(200, 4, c)
	z, _ := workload.NewZipf(256, 1.2, 3)
	updates := workload.MakeStream(z, 777) // mid-bucket position
	for _, u := range updates {
		w.Update(u.Value, u.Weight)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Window
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !r.Compatible(w) || r.total != w.total || covered(&r) != covered(w) {
		t.Fatal("window state must round-trip")
	}
	// Continue both windows identically: rotation must resume in sync.
	more := workload.MakeStream(z, 333)
	for _, u := range more {
		w.Update(u.Value, u.Weight)
		r.Update(u.Value, u.Weight)
	}
	cw, _ := w.Combined().MarshalBinary()
	cr, _ := r.Combined().MarshalBinary()
	if !bytes.Equal(cw, cr) {
		t.Fatal("restored window diverged after further updates")
	}
	if covered(w) != covered(&r) {
		t.Fatal("coverage diverged")
	}
}

func TestWindowUnmarshalErrors(t *testing.T) {
	w := MustNew(100, 4, cfg(3, 8, 1))
	w.Update(1, 1)
	blob, _ := w.MarshalBinary()
	var r Window
	if err := r.UnmarshalBinary(blob[:10]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 'X'
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected magic error")
	}
	bad = append([]byte{}, blob...)
	bad[4] = 9
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected version error")
	}
	if err := r.UnmarshalBinary(append(blob, 0)); err == nil {
		t.Fatal("expected length error")
	}
	// Hostile bucket dimensions.
	bad = append([]byte{}, blob...)
	bad[44], bad[45], bad[46], bad[47] = 0, 0, 0, 8
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected hostile-dimension error")
	}
	// Inconsistent rotation state (cur out of range).
	bad = append([]byte{}, blob...)
	bad[20], bad[21], bad[22], bad[23] = 99, 0, 0, 0
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected rotation-state error")
	}
}
