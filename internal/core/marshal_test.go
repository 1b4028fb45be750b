package core

import (
	"bytes"
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 64, 77))
	z, _ := workload.NewZipf(512, 1.2, 3)
	stream.Apply(workload.MakeStream(z, 5000), s)
	s.Update(3, -17)

	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r HashSketch
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if r.Config() != s.Config() || r.NetCount() != s.NetCount() || r.GrossCount() != s.GrossCount() {
		t.Fatal("metadata must round-trip")
	}
	for j := 0; j < 5; j++ {
		for k := 0; k < 64; k++ {
			if r.counters[j*r.cfg.Buckets+k] != s.counters[j*s.cfg.Buckets+k] {
				t.Fatal("counters must round-trip")
			}
		}
	}
	// The restored sketch must keep estimating identically (hash families
	// rebuilt from seed).
	for v := uint64(0); v < 512; v += 17 {
		if r.PointEstimate(v) != s.PointEstimate(v) {
			t.Fatal("restored sketch estimates differ")
		}
	}
	// And accept further updates.
	r.Update(9, 1)
	s.Update(9, 1)
	if r.PointEstimate(9) != s.PointEstimate(9) {
		t.Fatal("restored sketch must continue identically")
	}
}

// TestAppendBinaryKeepsPrefix: AppendBinary onto a non-empty prefix
// leaves the prefix intact and appends exactly MarshalBinary's bytes,
// BinarySize of them, so a caller can pack several sketches into one
// exactly sized buffer.
func TestAppendBinaryKeepsPrefix(t *testing.T) {
	s := MustNewHashSketch(cfg(5, 64, 77))
	z, _ := workload.NewZipf(512, 1.2, 3)
	stream.Apply(workload.MakeStream(z, 5000), s)
	s.Update(3, -17)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != s.BinarySize() || cap(blob) != s.BinarySize() {
		t.Fatalf("MarshalBinary: len %d cap %d, BinarySize %d", len(blob), cap(blob), s.BinarySize())
	}
	prefix := []byte("prefix bytes")
	got, err := s.AppendBinary(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], blob) {
		t.Fatal("AppendBinary must keep the prefix and append MarshalBinary's bytes")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	blob, _ := s.MarshalBinary()

	var r HashSketch
	if err := r.UnmarshalBinary(blob[:10]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 'X'
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected magic error")
	}
	bad = append([]byte{}, blob...)
	bad[4] = 99
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected version error")
	}
	if err := r.UnmarshalBinary(append(blob, 0)); err == nil {
		t.Fatal("expected length error")
	}
	// Corrupt dimensions to zero.
	bad = append([]byte{}, blob...)
	bad[8], bad[9], bad[10], bad[11] = 0, 0, 0, 0
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected config error")
	}
}

// TestUnmarshalHostileDimensions: a header declaring huge dimensions
// with a short body must be rejected by the length check BEFORE any
// allocation happens (found by FuzzUnmarshalBinary).
func TestUnmarshalHostileDimensions(t *testing.T) {
	s := MustNewHashSketch(cfg(3, 8, 1))
	blob, _ := s.MarshalBinary()
	hostile := append([]byte{}, blob...)
	// tables := 2^27, buckets unchanged: would demand ~8 GB of counters.
	hostile[8], hostile[9], hostile[10], hostile[11] = 0, 0, 0, 8
	var r HashSketch
	if err := r.UnmarshalBinary(hostile); err == nil {
		t.Fatal("expected length error for hostile dimensions")
	}
}

// TestMarshalJoinAcrossProcesses simulates the deployment pattern: two
// sites sketch their local streams, ship the blobs, and the coordinator
// estimates the join.
func TestMarshalJoinAcrossProcesses(t *testing.T) {
	c := cfg(7, 256, 2024)
	const domain = 1 << 10
	zf, _ := workload.NewZipf(domain, 1.3, 5)
	zg, _ := workload.NewZipf(domain, 1.3, 6)

	// "Site F" and "site G".
	sf := MustNewHashSketch(c)
	sg := MustNewHashSketch(c)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	for _, u := range workload.MakeStream(zf, 20000) {
		sf.Update(u.Value, u.Weight)
		fv.Update(u.Value, u.Weight)
	}
	for _, u := range workload.MakeStream(zg, 20000) {
		sg.Update(u.Value, u.Weight)
		gv.Update(u.Value, u.Weight)
	}
	fBlob, _ := sf.MarshalBinary()
	gBlob, _ := sg.MarshalBinary()

	// "Coordinator".
	var f, g HashSketch
	if err := f.UnmarshalBinary(fBlob); err != nil {
		t.Fatal(err)
	}
	if err := g.UnmarshalBinary(gBlob); err != nil {
		t.Fatal(err)
	}
	want, err := EstimateJoin(sf, sg, domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateJoin(&f, &g, domain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total {
		t.Fatalf("shipped estimate %d differs from local %d", got.Total, want.Total)
	}
}
