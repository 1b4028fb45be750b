package wire

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"skimsketch/internal/stream"
)

// frameBytes encodes frames via fn and returns the raw bytes (no
// connection header), for seeding corpora.
func frameBytes(f *testing.F, fn func(w *Writer) error) []byte {
	f.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := fn(w); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

func seedCorpus(f *testing.F) {
	d := &Data{
		ClientID: "fuzz",
		Seq:      7,
		Tenant:   "t",
		Groups: []stream.Group{
			{Name: "F", Updates: []stream.Update{{Value: 3, Weight: 1}, {Value: 1 << 50, Weight: -9}}},
			{Name: "G", Updates: nil},
		},
	}
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteData(d) }))
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteAck(Ack{Seq: 1, Applied: 10}) }))
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteReject(Reject{Seq: 2, RetryAfter: 1}) }))
	f.Add(frameBytes(f, func(w *Writer) error { return w.WriteError(ErrorFrame{Seq: 3, Msg: "boom"}) }))
	f.Add(frameBytes(f, func(w *Writer) error {
		if err := w.WriteData(d); err != nil {
			return err
		}
		return w.WriteAck(Ack{Seq: 7, Applied: 2})
	}))
	body, err := AppendGroups(nil, d.Groups)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body) // an HTTP /update groups body
	f.Add([]byte{})
	f.Add([]byte("SKSPgarbage that is not a frame"))
	f.Add([]byte{1, 255, 255, 255, 255, 0, 0, 0, 0}) // huge declared length
}

// sameGroups fails t unless got and want hold the same groups, names
// and updates in the same order.
func sameGroups(t *testing.T, what string, got, want []stream.Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
	}
	for gi := range want {
		if got[gi].Name != want[gi].Name || !slices.Equal(got[gi].Updates, want[gi].Updates) {
			t.Fatalf("%s changed group %d", what, gi)
		}
	}
}

// groupsRoundTrip re-encodes groups as an HTTP /update body and decodes
// it again: the result must be identical.
func groupsRoundTrip(t *testing.T, groups []stream.Group) {
	t.Helper()
	body, err := AppendGroups(nil, groups)
	if err != nil {
		t.Fatalf("re-encode of accepted groups failed: %v", err)
	}
	var d Data
	if err := DecodeGroups(body, &d); err != nil {
		t.Fatalf("re-decode of own groups body failed: %v", err)
	}
	sameGroups(t, "groups round trip", d.Groups, groups)
}

// FuzzFrameRoundTrip drives the full de-framing + decode + re-encode
// loop over arbitrary byte streams: whatever the Reader and the payload
// decoders accept must survive a re-encode/re-decode round trip
// unchanged; everything else must fail with an error — never a panic,
// never an over-allocation driven by a lying length. The raw bytes are
// also tried as an HTTP /update groups body, which must round-trip
// through AppendGroups and DecodeGroups the same way.
func FuzzFrameRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var body Data
		if DecodeGroups(raw, &body) == nil {
			groupsRoundTrip(t, body.Groups)
		}
		r := NewReader(bytes.NewReader(raw))
		var d Data
		for i := 0; i < 64; i++ {
			ft, payload, err := r.Next()
			if err != nil {
				return // garbage and truncation end the stream; fine
			}
			switch ft {
			case FrameData:
				if err := DecodeData(payload, &d); err != nil {
					return
				}
				// Round trip: re-encode the decoded frame and decode it
				// again; the result must be identical.
				var buf bytes.Buffer
				w := NewWriter(&buf)
				if err := w.WriteData(&d); err != nil {
					t.Fatalf("re-encode of accepted frame failed: %v", err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				ft2, p2, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
				if err != nil || ft2 != FrameData {
					t.Fatalf("re-decode: type %d err %v", ft2, err)
				}
				var d2 Data
				if err := DecodeData(p2, &d2); err != nil {
					t.Fatalf("re-decode of own output failed: %v", err)
				}
				if d2.ClientID != d.ClientID || d2.Seq != d.Seq || d2.Tenant != d.Tenant {
					t.Fatalf("round trip changed identity: %+v vs %+v", d2, d)
				}
				sameGroups(t, "round trip", d2.Groups, d.Groups)
				groupsRoundTrip(t, d.Groups)
			case FrameAck:
				if a, err := DecodeAck(payload); err == nil {
					var buf bytes.Buffer
					w := NewWriter(&buf)
					if w.WriteAck(a) != nil || w.Flush() != nil {
						t.Fatal("re-encode ack failed")
					}
					_, p2, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
					if err != nil {
						t.Fatal(err)
					}
					if a2, err := DecodeAck(p2); err != nil || a2 != a {
						t.Fatalf("ack round trip: %+v vs %+v (%v)", a2, a, err)
					}
				}
			case FrameReject:
				if rej, err := DecodeReject(payload); err == nil && rej.Seq == 0 && rej.RetryAfter == 0 {
					_ = rej // decoded fine; nothing more to check
				}
			case FrameError:
				_, _ = DecodeError(payload)
			}
		}
	})
}

// FuzzFrameDecode hammers the payload decoders, and the HTTP groups
// body decoder, directly with garbage and truncations of every prefix
// length: they must never panic and never accept a payload with
// trailing bytes.
func FuzzFrameDecode(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		for cut := 0; cut <= len(raw) && cut <= 64; cut++ {
			p := raw[:len(raw)-cut]
			var d Data
			if err := DecodeData(p, &d); err == nil {
				// An accepted data payload must account for every byte:
				// total updates are bounded by the payload size.
				n := 0
				for _, g := range d.Groups {
					n += len(g.Updates)
				}
				if n > len(p) {
					t.Fatalf("decoded %d updates from %d bytes", n, len(p))
				}
			}
			if err := DecodeGroups(p, &d); err == nil {
				n := 0
				for _, g := range d.Groups {
					n += len(g.Updates)
				}
				if n > len(p) {
					t.Fatalf("decoded %d updates from a %d-byte groups body", n, len(p))
				}
			}
			_, _ = DecodeAck(p)
			_, _ = DecodeReject(p)
			_, _ = DecodeError(p)
		}
		// And the reader itself over the raw stream.
		r := NewReader(bytes.NewReader(raw))
		for {
			_, _, err := r.Next()
			if err != nil {
				if err == io.EOF && len(raw) == 0 {
					// clean boundary
				}
				break
			}
		}
	})
}
