package stream

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readAll drains r into a slice.
func readAll(r *Reader) ([]Update, error) {
	var out []Update
	for {
		u, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, u)
	}
}

func TestRoundTripInMemory(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1024)
	if err != nil {
		t.Fatal(err)
	}
	in := []Update{Insert(1), Delete(7), {Value: 1000, Weight: 42}}
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
	if r.domain != 1024 {
		t.Fatalf("domain = %d, want 1024", r.domain)
	}
	out, err := readAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOTASTREAMFILE..")
	if _, err := NewReader(buf); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	buf := bytes.NewBufferString("SKS")
	if _, err := NewReader(buf); err == nil {
		t.Fatal("expected error on truncated header")
	}
}

func TestEmptyStreamReadsEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestFileRoundTripAndPipe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.sks")
	rng := rand.New(rand.NewSource(7))
	var in []Update
	for i := 0; i < 500; i++ {
		in = append(in, Update{Value: uint64(rng.Intn(64)), Weight: int64(rng.Intn(5)) - 2})
	}
	if err := WriteFile(path, 64, in); err != nil {
		t.Fatal(err)
	}
	// Pipe must report the header's domain and produce the same
	// frequency vector as materializing.
	want := NewFreqVector()
	Apply(in, want)
	got := NewFreqVector()
	domain, n, err := Pipe(path, got)
	if err != nil {
		t.Fatal(err)
	}
	if domain != 64 || n != int64(len(in)) {
		t.Fatalf("Pipe: domain=%d records=%d, want 64 and %d", domain, n, len(in))
	}
	if len(got) != len(want) {
		t.Fatalf("support %d vs %d", len(got), len(want))
	}
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("value %d: %d vs %d", v, got[v], w)
		}
	}
}

func TestWriteFileBadDir(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f.sks"), 8, nil); err == nil {
		t.Fatal("expected error creating file in missing directory")
	}
}

func TestNegativeWeightSurvivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	w.Write(Update{Value: 1, Weight: -9999999999})
	w.Flush()
	r, _ := NewReader(&buf)
	u, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if u.Weight != -9999999999 {
		t.Fatalf("weight = %d", u.Weight)
	}
}

func TestPipeMissingFile(t *testing.T) {
	if _, _, err := Pipe(filepath.Join(t.TempDir(), "missing.sks")); err == nil {
		t.Fatal("expected error")
	}
}

func TestUnsupportedVersion(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 8)
	w.Flush()
	b := buf.Bytes()
	b[4] = 99 // corrupt version
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Fatal("expected version error")
	}
	_ = os.Stdout
}

// A record at value m is outside the header's [0, m): the reader refuses
// it and names the record, as the online path refuses it through
// Validate, and Pipe stops there.
func TestReadRejectsValueOutsideDomain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.sks")
	if err := WriteFile(path, 13, []Update{Insert(12), Insert(13), Insert(0)}); err != nil {
		t.Fatal(err)
	}
	fv := NewFreqVector()
	_, n, err := Pipe(path, fv)
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("err = %v, want an error naming record 1", err)
	}
	if n != 1 || fv.Get(12) != 1 || fv.Get(13) != 0 {
		t.Fatalf("applied %d records (%v), want only the first", n, fv)
	}
}
