package stream

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// updateLog is a Sink that records updates in order.
type updateLog []Update

func (l *updateLog) Update(value uint64, weight int64) {
	*l = append(*l, Update{Value: value, Weight: weight})
}

// readText parses r through PipeText over the widest domain.
func readText(r *strings.Reader) ([]Update, error) {
	var log updateLog
	_, err := PipeText(r, math.MaxUint64, &log)
	return log, err
}

func TestReadText(t *testing.T) {
	in := `
# comment
42
7,3

  13 , -2
`
	got, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Update{{Value: 42, Weight: 1}, {Value: 7, Weight: 3}, {Value: 13, Weight: -2}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := readText(strings.NewReader("notanumber")); err == nil {
		t.Fatal("expected value error")
	}
	if _, err := readText(strings.NewReader("1,notaweight")); err == nil {
		t.Fatal("expected weight error")
	}
	if _, err := readText(strings.NewReader("3\nbad\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatal("errors must carry line numbers")
	}
	if _, err := readText(strings.NewReader("-1")); err == nil {
		t.Fatal("negative values must be rejected")
	}
}

func TestWriteTextRoundTrip(t *testing.T) {
	in := []Update{{Value: 1, Weight: 1}, {Value: 2, Weight: -5}, {Value: 3, Weight: 100}}
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Bare form for weight-1 inserts.
	if !strings.HasPrefix(buf.String(), "1\n2,-5\n") {
		t.Fatalf("unexpected rendering:\n%s", buf.String())
	}
	out, err := readText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestPipeText(t *testing.T) {
	fv := NewFreqVector()
	n, err := PipeText(strings.NewReader("5\n5\n9,4\n"), 16, fv)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("applied %d", n)
	}
	if fv.Get(5) != 2 || fv.Get(9) != 4 {
		t.Fatalf("frequencies %v", fv)
	}
	if _, err := PipeText(strings.NewReader("x"), 16, fv); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestPipeTextRefusesOutOfDomain pins that a text value outside
// [0, domain) is an error naming its line, as an SKS1 record outside the
// header's domain is, and that nothing after it reaches the sinks.
func TestPipeTextRefusesOutOfDomain(t *testing.T) {
	fv := NewFreqVector()
	n, err := PipeText(strings.NewReader("7\n# comment\n500\n8\n"), 100, fv)
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v, want an out-of-domain error naming line 3", err)
	}
	if n != 1 || fv.Get(7) != 1 || fv.Get(8) != 0 {
		t.Fatalf("applied %d updates (%v), want only the first", n, fv)
	}
	if _, err := PipeText(strings.NewReader("99\n"), 100, fv); err != nil {
		t.Fatalf("domain-1 must be accepted: %v", err)
	}
}
