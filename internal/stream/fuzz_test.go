package stream

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the stream-file reader; it must
// never panic, and on valid prefixes must parse consistently.
func FuzzReader(f *testing.F) {
	// Seed corpus: a valid two-record file, a truncated one, junk.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 64)
	w.Write(Insert(1))
	w.Write(Delete(63))
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("SKS1junkjunkjunkjunk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		for {
			u, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // truncated record: fine
			}
			_ = u
		}
	})
}

// FuzzRoundTrip: updates written under the largest domain read back
// identically, except a value outside it, which the reader refuses.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(3), int64(1), uint64(9), int64(-4))
	f.Fuzz(func(t *testing.T, v1 uint64, w1 int64, v2 uint64, w2 int64) {
		in := []Update{{Value: v1, Weight: w1}, {Value: v2, Weight: w2}}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range in {
			if err := w.Write(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out, err := readAll(r)
		if v1 == ^uint64(0) || v2 == ^uint64(0) {
			if err == nil {
				t.Fatalf("value %d outside the domain was accepted", ^uint64(0))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
			t.Fatalf("round trip mismatch: %v vs %v", out, in)
		}
	})
}
