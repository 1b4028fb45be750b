package distributed

import (
	"bytes"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func cfg(d, b int, seed uint64) core.Config { return core.Config{Tables: d, Buckets: b, Seed: seed} }

// TestParallelIngestEqualsSerial: the merged shard sketch must be
// bit-identical to a serial sketch of the same stream.
func TestParallelIngestEqualsSerial(t *testing.T) {
	c := cfg(5, 128, 7)
	g, _ := workload.NewZipf(1024, 1.1, 3)
	updates := workload.MakeStream(g, 50000)
	updates = workload.WithDeletes(updates, 0.2, 9)

	serial := core.MustNewHashSketch(c)
	stream.Apply(updates, serial)

	// Four shards, each owning every fourth update, merged at query time.
	shards := make([]*core.HashSketch, 4)
	for i := range shards {
		shards[i] = core.MustNewHashSketch(c)
	}
	for i, u := range updates {
		shards[i%len(shards)].Update(u.Value, u.Weight)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.MarshalBinary()
	want, _ := serial.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("shard-merged sketch, counts included, must equal the serial one")
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("expected error for empty merge")
	}
	a := core.MustNewHashSketch(cfg(3, 8, 1))
	b := core.MustNewHashSketch(cfg(3, 8, 2))
	if _, err := Merge(a, b); err == nil {
		t.Fatal("expected incompatibility error")
	}
}

func TestMergeDoesNotMutateInputs(t *testing.T) {
	c := cfg(3, 8, 1)
	a := core.MustNewHashSketch(c)
	b := core.MustNewHashSketch(c)
	a.Update(1, 1)
	b.Update(2, 1)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.NetCount() != 1 || b.NetCount() != 1 {
		t.Fatal("inputs must be untouched")
	}
	if m.NetCount() != 2 {
		t.Fatalf("merged net = %d", m.NetCount())
	}
}

// TestMultiSiteJoin: sketches from independent "sites" merge into valid
// join inputs — the distributed-monitoring deployment of the paper's
// introduction.
func TestMultiSiteJoin(t *testing.T) {
	c := cfg(7, 256, 11)
	const m = 1 << 10
	// Site A and site B each observe part of stream F; one site observes G.
	fA := core.MustNewHashSketch(c)
	fB := core.MustNewHashSketch(c)
	gS := core.MustNewHashSketch(c)
	fAll := core.MustNewHashSketch(c)

	zf, _ := workload.NewZipf(m, 1.2, 5)
	zg, _ := workload.NewZipf(m, 1.2, 6)
	for i, u := range workload.MakeStream(zf, 20000) {
		if i%2 == 0 {
			fA.Update(u.Value, u.Weight)
		} else {
			fB.Update(u.Value, u.Weight)
		}
		fAll.Update(u.Value, u.Weight)
	}
	for _, u := range workload.MakeStream(zg, 20000) {
		gS.Update(u.Value, u.Weight)
	}

	merged, err := Merge(fA, fB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EstimateJoin(fAll, gS, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.EstimateJoin(merged, gS, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total {
		t.Fatalf("multi-site estimate %d differs from centralized %d", got.Total, want.Total)
	}
}
