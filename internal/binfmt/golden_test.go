package binfmt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/window"
	"skimsketch/internal/wire"
)

// golden is one format's encoding of a fixed value.
type golden struct {
	name string
	blob []byte
}

// goldenBlobs encodes one fixed value in every SK* format: the three
// synopsis formats, an SKSL payload, an SKCP envelope, the opening bytes
// of an SKSP connection (header plus one DATA frame) and an SKS1 file.
// Only exported encoders are used, so the digests mean "these bytes on
// the wire or on disk", whatever the code behind them.
func goldenBlobs(t testing.TB) []golden {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	updates := make([]stream.Update, 0, 60)
	for v := uint64(0); v < 60; v++ {
		updates = append(updates, stream.Update{Value: v * v % 13, Weight: int64(v%5) - 1})
	}

	left := core.MustNewHashSketch(core.Config{Tables: 3, Buckets: 8, Seed: 1})
	right := core.MustNewHashSketch(core.Config{Tables: 3, Buckets: 8, Seed: 1})
	win := window.MustNew(28, 4, core.Config{Tables: 3, Buckets: 4, Seed: 5}) // 60 updates end mid-bucket
	stream.Apply(updates, left, win)
	stream.Apply(updates[:17], right)

	var hist stats.Histogram
	for i := int64(0); i < 200; i++ {
		hist.Record(i * i * 37 % 100_003)
	}

	var ckpt bytes.Buffer
	if err := checkpoint.Encode(&ckpt, []byte(`{"version":2,"engine":{}}`)); err != nil {
		t.Fatal(err)
	}

	var sksp bytes.Buffer
	w := wire.NewWriter(&sksp)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteData(&wire.Data{ClientID: "loader-1", Seq: 42, Tenant: "acme", Groups: []stream.Group{
		{Name: "F", Updates: updates[:9]},
		{Name: "G", Updates: updates[30:33]},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var sks1 bytes.Buffer
	sw, err := stream.NewWriter(&sks1, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates[:11] {
		if err := sw.Write(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}

	return []golden{
		{"SKHS", must(left.MarshalBinary())},
		{"SKWN", must(win.MarshalBinary())},
		{"SKLH", must(hist.MarshalBinary())},
		{"SKSL", must(cluster.EncodePayload(&cluster.Payload{
			Agg: cluster.AggSum, Domain: 13, LeftEpoch: 60, RightEpoch: 17, Left: left, Right: right,
		}))},
		{"SKCP", ckpt.Bytes()},
		{"SKSP", sksp.Bytes()},
		{"SKS1", sks1.Bytes()},
	}
}

// TestGoldenEncodings pins the byte-exact encoding of every SK* format.
// Round-trip tests cannot catch a layout change that both sides make
// together; these digests can. They are a compatibility contract with
// every checkpoint on disk and every node on the other end of a
// connection: if one changes on purpose, that is a format version bump.
func TestGoldenEncodings(t *testing.T) {
	want := map[string]string{
		"SKHS": "a13540061069c26225eb219e141851b41e3fb1586bf0fedb2ba9e601c312565d",
		"SKWN": "d840bc8b8250472353e5ac3eae314af356999a9ab18dbffe9681bca2433fb134",
		"SKLH": "a5394f3dcbe0e1b400b7af8c265db65d3cce8162b99c50615ed75d41b8cdd52b",
		"SKSL": "249a7d13bb1207e350f1883c5b2b36b35224358c969290d5e2fd350f61acdb3d",
		"SKCP": "113156aa299ac3f6be6ca30e3f64e43174c16c9f0288fd3445e5f3e74902c1ee",
		"SKSP": "98c22fe31b46f0961decc8208efa9dac995179063acf5525e786592cd04db3e3",
		"SKS1": "c3b3ab209821d74a2c51c71fbad8f24903987385ad2c0ef57603beb1146a3615",
	}
	blobs := goldenBlobs(t)
	if len(blobs) != len(want) {
		t.Fatalf("%d golden blobs, %d digests", len(blobs), len(want))
	}
	for _, g := range blobs {
		if string(g.blob[:4]) != g.name {
			t.Errorf("%s blob starts with %q", g.name, g.blob[:4])
		}
		sum := sha256.Sum256(g.blob)
		if got := hex.EncodeToString(sum[:]); got != want[g.name] {
			t.Errorf("%s digest = %s, want %s", g.name, got, want[g.name])
		}
	}
}
