package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"skimsketch/internal/stream"
)

func testData(seq uint64) *Data {
	return &Data{
		ClientID: "c1",
		Seq:      seq,
		Tenant:   "acme",
		Groups: []stream.Group{
			{Name: "F", Updates: []stream.Update{{Value: 7, Weight: 1}, {Value: 1 << 40, Weight: -3}}},
			{Name: "G", Updates: []stream.Update{{Value: 0, Weight: 1}}},
		},
	}
}

func encodeFrames(t *testing.T, fn func(w *Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := fn(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHeaderRoundTrip(t *testing.T) {
	raw := encodeFrames(t, func(w *Writer) error { return w.WriteHeader() })
	if err := NewReader(bytes.NewReader(raw)).ReadHeader(); err != nil {
		t.Fatal(err)
	}
	// Wrong magic and wrong version are both refused.
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if err := NewReader(bytes.NewReader(bad)).ReadHeader(); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, raw...)
	bad[4] = 99
	if err := NewReader(bytes.NewReader(bad)).ReadHeader(); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestDataRoundTrip(t *testing.T) {
	want := testData(42)
	raw := encodeFrames(t, func(w *Writer) error { return w.WriteData(want) })
	r := NewReader(bytes.NewReader(raw))
	ft, payload, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameData {
		t.Fatalf("frame type %d, want DATA", ft)
	}
	var got Data
	if err := DecodeData(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.ClientID != want.ClientID || got.Seq != want.Seq || got.Tenant != want.Tenant {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if got.Groups[i].Name != want.Groups[i].Name {
			t.Fatalf("group %d name %q, want %q", i, got.Groups[i].Name, want.Groups[i].Name)
		}
		if len(got.Groups[i].Updates) != len(want.Groups[i].Updates) {
			t.Fatalf("group %d has %d updates", i, len(got.Groups[i].Updates))
		}
		for j, u := range want.Groups[i].Updates {
			if got.Groups[i].Updates[j] != u {
				t.Fatalf("group %d update %d = %+v, want %+v", i, j, got.Groups[i].Updates[j], u)
			}
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestDataDecodeReusesBuffers pins the zero-steady-state-allocation
// property: decoding into the same Data twice keeps the same backing
// array once capacity has been established.
func TestDataDecodeReusesBuffers(t *testing.T) {
	d1 := testData(1)
	raw := encodeFrames(t, func(w *Writer) error { return w.WriteData(d1) })
	r := NewReader(bytes.NewReader(raw))
	_, payload, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	var dst Data
	if err := DecodeData(payload, &dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeData(payload, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state DecodeData allocates %.1f times per frame, want 0", allocs)
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	raw := encodeFrames(t, func(w *Writer) error {
		if err := w.WriteAck(Ack{Seq: 9, Applied: 128, Duplicate: true}); err != nil {
			return err
		}
		if err := w.WriteReject(Reject{Seq: 10, RetryAfter: 3}); err != nil {
			return err
		}
		return w.WriteError(ErrorFrame{Seq: 11, Msg: "unknown stream \"nope\""})
	})
	r := NewReader(bytes.NewReader(raw))

	ft, p, err := r.Next()
	if err != nil || ft != FrameAck {
		t.Fatalf("frame 1: type %d err %v", ft, err)
	}
	a, err := DecodeAck(p)
	if err != nil || a != (Ack{Seq: 9, Applied: 128, Duplicate: true}) {
		t.Fatalf("ack %+v err %v", a, err)
	}

	ft, p, err = r.Next()
	if err != nil || ft != FrameReject {
		t.Fatalf("frame 2: type %d err %v", ft, err)
	}
	rej, err := DecodeReject(p)
	if err != nil || rej != (Reject{Seq: 10, RetryAfter: 3}) {
		t.Fatalf("reject %+v err %v", rej, err)
	}

	ft, p, err = r.Next()
	if err != nil || ft != FrameError {
		t.Fatalf("frame 3: type %d err %v", ft, err)
	}
	ef, err := DecodeError(p)
	if err != nil || ef.Seq != 11 || !strings.Contains(ef.Msg, "unknown stream") {
		t.Fatalf("error frame %+v err %v", ef, err)
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	raw := encodeFrames(t, func(w *Writer) error { return w.WriteData(testData(5)) })

	// Flip one payload byte: the CRC must catch it.
	flipped := append([]byte{}, raw...)
	flipped[len(flipped)-1] ^= 0x40
	if _, _, err := NewReader(bytes.NewReader(flipped)).Next(); err == nil {
		t.Fatal("corrupted payload passed CRC")
	}

	// Truncate mid-payload.
	if _, _, err := NewReader(bytes.NewReader(raw[:len(raw)-3])).Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated payload: %v, want a non-EOF error", err)
	}

	// Truncate mid-envelope.
	if _, _, err := NewReader(bytes.NewReader(raw[:4])).Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated envelope: %v, want a non-EOF error", err)
	}

	// Unknown frame type.
	bad := append([]byte{}, raw...)
	bad[0] = 200
	if _, _, err := NewReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Fatal("unknown frame type accepted")
	}

	// A declared length beyond the cap is refused before any read.
	var env [9]byte
	env[0] = byte(FrameData)
	binary.LittleEndian.PutUint32(env[1:], MaxFramePayload+1)
	if _, _, err := NewReader(bytes.NewReader(env[:])).Next(); err == nil {
		t.Fatal("oversized declaration accepted")
	}
}

// TestGroupsSectionIsDataPayloadTail: the HTTP groups body is exactly
// the tail of a DATA payload after its header fields, DecodeGroups reads
// it back without touching the frame identity, and it refuses what
// DecodeData refuses in that section.
func TestGroupsSectionIsDataPayloadTail(t *testing.T) {
	want := testData(9)
	raw := encodeFrames(t, func(w *Writer) error { return w.WriteData(want) })
	body, err := AppendGroups(nil, want.Groups)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(raw, body) || len(raw) != envelopeLen+8+2+len(want.ClientID)+len(want.Tenant)+len(body) {
		t.Fatalf("groups body %x is not the DATA payload's tail %x", body, raw)
	}
	got := Data{ClientID: "kept", Seq: 5, Tenant: "kept"}
	if err := DecodeGroups(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ClientID != "kept" || got.Seq != 5 || got.Tenant != "kept" {
		t.Fatalf("DecodeGroups changed the frame identity: %+v", got)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if got.Groups[i].Name != want.Groups[i].Name || !slices.Equal(got.Groups[i].Updates, want.Groups[i].Updates) {
			t.Fatalf("group %d = %+v, want %+v", i, got.Groups[i], want.Groups[i])
		}
	}

	for name, bad := range map[string][]byte{
		"empty body":     {},
		"trailing bytes": append(append([]byte{}, body...), 0),
		"lying count":    binary.AppendUvarint(nil, 1<<40),
		"empty name":     {1, 0, 0},
	} {
		if err := DecodeGroups(bad, &Data{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := AppendGroups(nil, []stream.Group{{Name: strings.Repeat("x", MaxNameLen+1)}}); err == nil {
		t.Error("AppendGroups accepted an over-long stream name")
	}
}

func TestDecodeDataRejectsLyingCounts(t *testing.T) {
	// Hand-build payloads whose declared counts exceed what the remaining
	// bytes could possibly hold; the decoder must refuse BEFORE growing
	// its buffers (the error text proves which check fired).
	base := func() []byte {
		b := binary.LittleEndian.AppendUint64(nil, 1) // seq
		b = append(b, 1, 'c')                         // clientID
		b = append(b, 0)                              // default tenant
		return b
	}

	huge := binary.AppendUvarint(base(), 1<<40) // group count
	if err := DecodeData(huge, &Data{}); err == nil || !strings.Contains(err.Error(), "groups declared") {
		t.Fatalf("lying group count: %v", err)
	}

	b := binary.AppendUvarint(base(), 1) // one group
	b = append(b, 1, 'F')
	b = binary.AppendUvarint(b, 1<<40) // update count
	if err := DecodeData(b, &Data{}); err == nil || !strings.Contains(err.Error(), "updates declared") {
		t.Fatalf("lying update count: %v", err)
	}

	// Empty clientID and empty stream names are refused.
	b = binary.LittleEndian.AppendUint64(nil, 1)
	b = append(b, 0)
	if err := DecodeData(b, &Data{}); err == nil {
		t.Fatal("empty clientID accepted")
	}

	// Trailing garbage after a valid payload is refused.
	d := testData(3)
	raw := encodeFrames(t, func(w *Writer) error { return w.WriteData(d) })
	payload := raw[9:]
	if err := DecodeData(append(append([]byte{}, payload...), 0xFF), &Data{}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// The update loop decodes one-byte and multi-byte varints alike, and
// words a malformed value or weight as the binfmt reader words it.
func TestDecodeDataUpdateVarints(t *testing.T) {
	var ups []stream.Update
	for _, v := range []uint64{0, 1, 127, 128, 300, 1<<16 - 1, 1 << 40, math.MaxUint64} {
		for _, w := range []int64{0, 1, -1, 63, -64, 64, -65, 1000, math.MinInt64, math.MaxInt64} {
			ups = append(ups, stream.Update{Value: v, Weight: w})
		}
	}
	raw := encodeFrames(t, func(w *Writer) error {
		return w.WriteData(&Data{ClientID: "c", Groups: []stream.Group{{Name: "F", Updates: ups}}})
	})
	var d Data
	if err := DecodeData(raw[envelopeLen:], &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 1 || !slices.Equal(d.Groups[0].Updates, ups) {
		t.Fatalf("decoded %+v, want %+v", d.Groups, ups)
	}

	group := func(updates ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 1) // seq
		b = append(b, 1, 'c', 0, 1, 1, 'F', 1)        // clientID, default tenant, one group "F" of one update
		return append(b, updates...)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"truncated value", group(0x80), "SKSP: bad uvarint"},
		{"overlong value", group(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x02), "SKSP: bad uvarint"},
		{"missing weight", group(0x05), "SKSP: bad varint"},
		{"truncated weight", group(0x05, 0x80), "SKSP: bad varint"},
	} {
		if err := DecodeData(c.payload, &Data{}); err == nil || err.Error() != c.want {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// BenchmarkDecodeData decodes frames of skimbench's sksp_ingest shape:
// one F and one G group of 512 inserts each, values below 2^16.
func BenchmarkDecodeData(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := &Data{ClientID: "bench", Groups: []stream.Group{{Name: "F"}, {Name: "G"}}}
	for g := range d.Groups {
		for i := 0; i < 512; i++ {
			d.Groups[g].Updates = append(d.Groups[g].Updates, stream.Update{Value: uint64(rng.Intn(1 << 16)), Weight: 1})
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteData(d); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	payload := buf.Bytes()[envelopeLen:]
	var dst Data
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeData(payload, &dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/update")
}

func TestWindowDedupe(t *testing.T) {
	w := NewWindow(4, 2)
	if _, ok := w.Lookup("a", 1); ok {
		t.Fatal("empty window claims a hit")
	}
	w.Record("a", 1, Outcome{Applied: 10})
	out, ok := w.Lookup("a", 1)
	if !ok || out.Applied != 10 {
		t.Fatalf("lookup after record: %+v %v", out, ok)
	}
	if _, ok := w.Lookup("b", 1); ok {
		t.Fatal("client b sees client a's seq")
	}

	// Per-client FIFO: recording 4 more seqs evicts seq 1.
	for s := uint64(2); s <= 5; s++ {
		w.Record("a", s, Outcome{Applied: int64(s)})
	}
	if _, ok := w.Lookup("a", 1); ok {
		t.Fatal("seq 1 survived a full ring of newer seqs")
	}
	if out, ok := w.Lookup("a", 5); !ok || out.Applied != 5 {
		t.Fatal("newest seq missing")
	}

	// Re-recording an in-window seq refreshes without consuming a slot.
	w.Record("a", 5, Outcome{Applied: 55})
	if out, _ := w.Lookup("a", 5); out.Applied != 55 {
		t.Fatal("refresh did not take")
	}
	if _, ok := w.Lookup("a", 2); !ok {
		t.Fatal("refresh evicted an unrelated seq")
	}

	// Client LRU: with capacity 2, touching a then adding c evicts b.
	w.Record("b", 1, Outcome{})
	w.Lookup("a", 5)
	w.Record("c", 1, Outcome{})
	if w.Clients() != 2 {
		t.Fatalf("%d clients tracked, want 2", w.Clients())
	}
	if _, ok := w.Lookup("b", 1); ok {
		t.Fatal("LRU client b survived")
	}
	if _, ok := w.Lookup("a", 5); !ok {
		t.Fatal("recently-used client a evicted")
	}
}
