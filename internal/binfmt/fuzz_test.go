package binfmt_test

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"io"
	"testing"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/window"
)

// roundTrip decodes data through one format's public decoder and, if it
// is accepted, re-encodes the result through the public encoder.
type roundTrip func(t *testing.T, data []byte) (reencoded []byte, accepted bool)

// binaryCodec is a format type with MarshalBinary/UnmarshalBinary.
type binaryCodec[T any] interface {
	*T
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

func viaBinary[T any, P binaryCodec[T]](t *testing.T, data []byte) ([]byte, bool) {
	v := P(new(T))
	if v.UnmarshalBinary(data) != nil {
		return nil, false
	}
	return mustEncode(t)(v.MarshalBinary()), true
}

func mustEncode(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("re-encoding an accepted input failed: %v", err)
		}
		return b
	}
}

// roundTrips names each format's round trip by its magic. SKSP is
// absent: its frame payloads carry no magic, so internal/wire fuzzes
// them itself.
var roundTrips = map[string]roundTrip{
	"SKHS": viaBinary[core.HashSketch],
	"SKWN": viaBinary[window.Window],
	"SKLH": viaBinary[stats.Histogram],
	"SKSL": func(t *testing.T, data []byte) ([]byte, bool) {
		p, err := cluster.DecodePayload(data)
		if err != nil {
			return nil, false
		}
		return mustEncode(t)(cluster.EncodePayload(p)), true
	},
	"SKCP": func(t *testing.T, data []byte) ([]byte, bool) {
		payload, err := checkpoint.Decode(data)
		if err != nil {
			return nil, false
		}
		var buf bytes.Buffer
		err = checkpoint.Encode(&buf, payload)
		return mustEncode(t)(buf.Bytes(), err), true
	},
	"SKS1": func(t *testing.T, data []byte) ([]byte, bool) {
		r, err := stream.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, false
		}
		// NewReader accepted the 16-byte header: magic, version, domain.
		var buf bytes.Buffer
		w, err := stream.NewWriter(&buf, binary.LittleEndian.Uint64(data[8:16]))
		mustEncode(t)(nil, err)
		for {
			u, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, false
			}
			mustEncode(t)(nil, w.Write(u))
		}
		err = w.Flush()
		return mustEncode(t)(buf.Bytes(), err), true
	},
}

// FuzzDecode feeds arbitrary bytes to the decoder their first four
// bytes name. Every decoder must reject garbage with an error, never a
// panic or an allocation the input does not pay for, and must obey one
// law on everything it accepts: re-encoding the decoded value gives back
// the input byte for byte. The law makes each accepted blob canonical,
// so no two blobs decode to the same value and a decoded value holds
// nothing its encoder would not write.
func FuzzDecode(f *testing.F) {
	// Each sketch format: a valid blob, a truncated one, garbage after
	// the magic, and nothing at all.
	hs := core.MustNewHashSketch(core.Config{Tables: 3, Buckets: 8, Seed: 1})
	hs.Update(3, 5)
	win := window.MustNew(8, 2, core.Config{Tables: 3, Buckets: 4, Seed: 1})
	win.Update(3, 5)
	for _, s := range []struct {
		magic string
		sk    encoding.BinaryMarshaler
	}{{"SKHS", hs}, {"SKWN", win}} {
		blob, err := s.sk.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:20])
		f.Add([]byte(s.magic + "garbage"))
		f.Add([]byte{})
	}

	// SKLH: empty, populated, and tail-heavy with min/max in the
	// extreme buckets.
	var empty, pop, tail stats.Histogram
	for i := int64(0); i < 500; i++ {
		pop.Record(i * i % 100_000)
	}
	tail.Record(0)
	tail.Record(1_000_000_000_000)
	for _, h := range []*stats.Histogram{&empty, &pop, &tail} {
		blob, err := h.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("SKLH garbage"))

	// SKCP: a valid envelope plus each corruption class Decode guards
	// against.
	envelope := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := envelope([]byte(`{"schema":"skimsketch/checkpoint/1"}`))
	f.Add(valid)
	f.Add(envelope(nil))
	f.Add(valid[:19])                           // too short for the header
	f.Add(append([]byte("SKXX"), valid[4:]...)) // bad magic
	badVer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVer[4:8], 99)
	f.Add(badVer)
	f.Add(append([]byte(nil), valid[:len(valid)-3]...)) // torn
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<62)
	f.Add(huge) // absurd declared length
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	f.Add(append(valid, 0)) // trailing padding

	// SKS1: a record at value m, outside the header's [0, m), which the
	// reader refuses, and a file cut mid-record.
	var sks1 bytes.Buffer
	sw, err := stream.NewWriter(&sks1, 13)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []uint64{12, 13} {
		if err := sw.Write(stream.Update{Value: v, Weight: 1}); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(sks1.Bytes())
	f.Add(sks1.Bytes()[:sks1.Len()-5])

	// Every format's golden blob, SKSL and SKS1 included.
	for _, g := range goldenBlobs(f) {
		f.Add(g.blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rt, ok := roundTrips[string(data[:4])]
		if !ok {
			return
		}
		if got, accepted := rt(t, data); accepted && !bytes.Equal(got, data) {
			t.Fatalf("%s: accepted %d bytes that re-encode to %d different bytes", data[:4], len(data), len(got))
		}
	})
}

// TestGoldenBlobsRoundTrip checks that FuzzDecode's law holds on, and
// its accept path is reached by, every golden blob it has a decoder for.
func TestGoldenBlobsRoundTrip(t *testing.T) {
	for _, g := range goldenBlobs(t) {
		rt, ok := roundTrips[g.name]
		if !ok {
			continue
		}
		got, accepted := rt(t, g.blob)
		if !accepted || !bytes.Equal(got, g.blob) {
			t.Errorf("%s: accepted=%v, re-encoding equal=%v", g.name, accepted, bytes.Equal(got, g.blob))
		}
	}
}
