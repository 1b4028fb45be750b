package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// capture runs cmd on args and returns what it reported.
func capture(t *testing.T, cmd func(io.Writer, []string) error, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cmd(&buf, args); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func writeStreams(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	fPath := filepath.Join(dir, "f.sks")
	gPath := filepath.Join(dir, "g.sks")
	zf, _ := workload.NewZipf(1024, 1.1, 1)
	zg, _ := workload.NewZipf(1024, 1.1, 2)
	if err := stream.WriteFile(fPath, 1024, workload.MakeStream(zf, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteFile(gPath, 1024, workload.MakeStream(zg, 5000)); err != nil {
		t.Fatal(err)
	}
	return fPath, gPath
}

func TestJoinRunValidation(t *testing.T) {
	if err := runJoin(io.Discard, []string{"-g", "x", "-tables", "3", "-buckets", "8", "-seed", "1"}); err == nil {
		t.Fatal("expected error for missing -f")
	}
	if err := runJoin(io.Discard, []string{"-f", "x", "-tables", "3", "-buckets", "8", "-seed", "1"}); err == nil {
		t.Fatal("expected error for missing -g")
	}
	f, g := writeStreams(t)
	if err := runJoin(io.Discard, []string{"-f", f, "-g", g, "-tables", "0", "-buckets", "8", "-seed", "1"}); err == nil {
		t.Fatal("expected error for bad sketch config")
	}
	if err := runJoin(io.Discard, []string{"-f", f, "-g", filepath.Join(t.TempDir(), "missing.sks"), "-tables", "3", "-buckets", "8", "-seed", "1"}); err == nil {
		t.Fatal("expected error for missing stream file")
	}
	if err := runJoin(io.Discard, []string{"-f", f, "-g", g, "-tables", "3", "-buckets", "8", "-seed", "1", "-text"}); err == nil {
		t.Fatal("expected error for -text without -domain")
	}
}

func TestRunTextInputs(t *testing.T) {
	dir := t.TempDir()
	fPath := filepath.Join(dir, "f.txt")
	gPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(fPath, []byte("7\n7\n9,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gPath, []byte("7,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runJoin(io.Discard, []string{"-f", fPath, "-g", gPath, "-tables", "5", "-buckets", "64", "-seed", "1", "-exact", "-text", "-domain", "64"}); err != nil {
		t.Fatal(err)
	}
	// Parse errors propagate.
	if err := os.WriteFile(fPath, []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runJoin(io.Discard, []string{"-f", fPath, "-g", gPath, "-tables", "5", "-buckets", "64", "-seed", "1", "-text", "-domain", "64"}); err == nil {
		t.Fatal("expected text parse error")
	}
}

// TestJoinTextRefusesOutOfDomain pins that a text value at or above
// -domain is an error naming its line, not an estimate.
func TestJoinTextRefusesOutOfDomain(t *testing.T) {
	dir := t.TempDir()
	fPath := filepath.Join(dir, "f.txt")
	gPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(fPath, []byte("7\n500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gPath, []byte("7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runJoin(io.Discard, []string{"-f", fPath, "-g", gPath, "-text", "-domain", "100"})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want an out-of-domain error naming line 2", err)
	}
}

func TestRunEstimates(t *testing.T) {
	f, g := writeStreams(t)
	if err := runJoin(io.Discard, []string{"-f", f, "-g", g, "-tables", "5", "-buckets", "256", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithExactAndAGMS(t *testing.T) {
	f, g := writeStreams(t)
	if err := runJoin(io.Discard, []string{"-f", f, "-g", g, "-tables", "5", "-buckets", "64", "-seed", "7", "-exact", "-agms"}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinStreamsMatchesBuiltSketches pins the one join path: joining
// two streams prints what building a sketch of each and joining the
// sketches prints, and so does a stream joined with a sketch.
func TestJoinStreamsMatchesBuiltSketches(t *testing.T) {
	f, g := writeStreams(t)
	dir := t.TempDir()
	fSketch := filepath.Join(dir, "f.skhs")
	gSketch := filepath.Join(dir, "g.skhs")
	shape := []string{"-tables", "5", "-buckets", "256", "-seed", "9"}
	for _, p := range [][2]string{{f, fSketch}, {g, gSketch}} {
		if err := runBuild(io.Discard, append([]string{"-in", p[0], "-out", p[1]}, shape...)); err != nil {
			t.Fatal(err)
		}
	}
	fromStreams := capture(t, runJoin, append([]string{"-f", f, "-g", g}, shape...)...)
	fromSketches := capture(t, runJoin, "-f", fSketch, "-g", gSketch, "-domain", "1024")
	mixed := capture(t, runJoin, append([]string{"-f", f, "-g", gSketch}, shape...)...)
	if !strings.HasPrefix(fromStreams, "estimate=") {
		t.Fatalf("stream join printed %q", fromStreams)
	}
	if fromSketches != fromStreams || mixed != fromStreams {
		t.Fatalf("join outputs differ:\nstreams:  %ssketches: %smixed:    %s", fromStreams, fromSketches, mixed)
	}
}

// TestJoinBaselinesNeedStreams pins that -exact and -agms are refused,
// with an error saying why, when an input is a sketch, and that two
// sketches need -domain.
func TestJoinBaselinesNeedStreams(t *testing.T) {
	f, g := writeStreams(t)
	gSketch := filepath.Join(t.TempDir(), "g.skhs")
	if err := runBuild(io.Discard, []string{"-in", g, "-out", gSketch}); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-exact", "-agms"} {
		err := runJoin(io.Discard, []string{"-f", f, "-g", gSketch, flag})
		if err == nil || !strings.Contains(err.Error(), "need stream inputs") {
			t.Fatalf("%s with a sketch input: err = %v", flag, err)
		}
	}
	err := runJoin(io.Discard, []string{"-f", gSketch, "-g", gSketch})
	if err == nil || !strings.Contains(err.Error(), "-domain") {
		t.Fatalf("two sketches without -domain: err = %v", err)
	}
}
