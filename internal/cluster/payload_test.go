package cluster

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"skimsketch/internal/binfmt"
	"skimsketch/internal/core"
)

func testPayload(t *testing.T) *Payload {
	t.Helper()
	cfg := core.Config{Tables: 5, Buckets: 64, Seed: 7}
	left := core.MustNewHashSketch(cfg)
	right := core.MustNewHashSketch(cfg)
	for v := uint64(0); v < 200; v++ {
		left.Update(v%97, 1)
		right.Update(v%31, int64(1+v%4))
	}
	return &Payload{Agg: AggCount, Domain: 1 << 12, LeftEpoch: 200, RightEpoch: 200, Left: left, Right: right}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := testPayload(t)
	blob, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Agg != p.Agg || got.Domain != p.Domain || got.LeftEpoch != p.LeftEpoch || got.RightEpoch != p.RightEpoch {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, p)
	}
	lw, _ := p.Left.MarshalBinary()
	lg, _ := got.Left.MarshalBinary()
	rw, _ := p.Right.MarshalBinary()
	rg, _ := got.Right.MarshalBinary()
	if string(lw) != string(lg) || string(rw) != string(rg) {
		t.Fatal("sketches did not survive the round trip bit-identically")
	}
}

// TestEncodePayloadMatchesBlobComposition: EncodePayload's single
// exactly sized buffer holds the bytes of the composition it replaced,
// header and fields followed by binfmt.AppendBlob of each side's
// MarshalBinary, for both aggregates and for sides of unequal shapes.
func TestEncodePayloadMatchesBlobComposition(t *testing.T) {
	small := testPayload(t)
	wide := core.MustNewHashSketch(core.Config{Tables: 7, Buckets: 256, Seed: 3})
	for v := uint64(0); v < 300; v++ {
		wide.Update(v%211, int64(v%5)-2)
	}
	for _, p := range []*Payload{
		small,
		{Agg: AggSum, Domain: 1 << 20, LeftEpoch: 5, RightEpoch: 300, Left: small.Left, Right: wide},
		{Agg: AggCount, Domain: 7, LeftEpoch: 300, Right: small.Right, Left: wide},
	} {
		want := binfmt.AppendHeader(nil, payloadMagic, payloadVersion)
		want = append(want, p.Agg)
		want = binary.LittleEndian.AppendUint64(want, p.Domain)
		want = binary.LittleEndian.AppendUint64(want, p.LeftEpoch)
		want = binary.LittleEndian.AppendUint64(want, p.RightEpoch)
		want = binfmt.AppendBlob(binfmt.AppendBlob(want, marshal(t, p.Left)), marshal(t, p.Right))
		got, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("agg %d: EncodePayload differs from the blob composition", p.Agg)
		}
		if cap(got) != len(got) {
			t.Fatalf("agg %d: buffer cap %d for %d bytes, want it sized exactly", p.Agg, cap(got), len(got))
		}
	}
}

func TestPayloadDecodeRejectsGarbage(t *testing.T) {
	blob, err := EncodePayload(testPayload(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"short", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic"},
		{"bad version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 99); return b }, "version"},
		{"bad agg", func(b []byte) []byte { b[8] = 7; return b }, "aggregate"},
		{"truncated blob", func(b []byte) []byte { return b[:len(b)-5] }, ""},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xAB) }, "trailing"},
		// A hostile length field declaring far more bytes than shipped
		// must be bounded before use, not trusted.
		{"length bomb", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[33:37], 1<<31)
			return b
		}, "remain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), blob...))
			_, err := DecodePayload(b)
			if err == nil {
				t.Fatal("DecodePayload accepted corrupted input")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestPayloadEncodeRejectsIncomplete(t *testing.T) {
	if _, err := EncodePayload(nil); err == nil {
		t.Fatal("EncodePayload(nil) succeeded")
	}
	p := testPayload(t)
	p.Right = nil
	if _, err := EncodePayload(p); err == nil {
		t.Fatal("EncodePayload without a right sketch succeeded")
	}
	p = testPayload(t)
	p.Agg = 9
	if _, err := EncodePayload(p); err == nil {
		t.Fatal("EncodePayload with an unknown aggregate code succeeded")
	}
}
