package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// updateLog is a stream.Sink that records updates in order.
type updateLog []stream.Update

func (l *updateLog) Update(value uint64, weight int64) {
	*l = append(*l, stream.Update{Value: value, Weight: weight})
}

// readStream reads an SKS1 file through stream.Pipe.
func readStream(t *testing.T, path string) (uint64, []stream.Update) {
	t.Helper()
	var log updateLog
	domain, _, err := stream.Pipe(path, &log)
	if err != nil {
		t.Fatal(err)
	}
	return domain, log
}

func TestGenRunValidation(t *testing.T) {
	if err := runGen(io.Discard, []string{"-kind", "zipf", "-domain", "16", "-n", "10"}); err == nil {
		t.Fatal("expected error for missing -out")
	}
	if err := runGen(io.Discard, []string{"-kind", "zipf", "-out", "x", "-domain", "16", "-n", "0"}); err == nil {
		t.Fatal("expected error for n=0")
	}
	if err := runGen(io.Discard, []string{"-kind", "nope", "-out", "x", "-domain", "16", "-n", "10"}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if err := runGen(io.Discard, []string{"-kind", "census", "-out", filepath.Join(t.TempDir(), "w.sks"), "-domain", "16", "-n", "10"}); err == nil {
		t.Fatal("expected error for census without -out2")
	}
	if err := runGen(io.Discard, []string{"-kind", "zipf", "-out", "x", "-domain", "0", "-n", "10"}); err == nil {
		t.Fatal("expected error for zero domain")
	}
}

// TestGenRefusesZeroDomain pins that -domain 0 is an error for every
// kind, before any generator is built (uniform used to panic in
// rand.Int63n) and before any file is written.
func TestGenRefusesZeroDomain(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"zipf", "uniform", "census"} {
		out := filepath.Join(dir, kind+".sks")
		args := []string{"-kind", kind, "-out", out, "-out2", out + "2", "-domain", "0", "-n", "10"}
		if err := runGen(io.Discard, args); err == nil {
			t.Fatalf("-kind %s -domain 0 was accepted", kind)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("-kind %s -domain 0 wrote %s", kind, out)
		}
	}
}

func TestRunZipfWritesStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.sks")
	if err := runGen(io.Discard, []string{"-kind", "zipf", "-out", out, "-domain", "256", "-n", "1000", "-zipf", "1.0", "-shift", "10", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	domain, updates := readStream(t, out)
	if domain != 256 || len(updates) != 1000 {
		t.Fatalf("domain=%d len=%d", domain, len(updates))
	}
	if err := stream.Validate(updates, 256); err != nil {
		t.Fatal(err)
	}
}

func TestRunUniformWithDeletes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "u.sks")
	if err := runGen(io.Discard, []string{"-kind", "uniform", "-out", out, "-domain", "64", "-n", "500", "-zipf", "0", "-seed", "3", "-deletes", "0.5"}); err != nil {
		t.Fatal(err)
	}
	_, updates := readStream(t, out)
	if len(updates) <= 500 {
		t.Fatalf("delete noise should add updates, got %d", len(updates))
	}
	var deletes int
	for _, u := range updates {
		if u.Weight < 0 {
			deletes++
		}
	}
	if deletes == 0 {
		t.Fatal("expected delete records")
	}
}

func TestRunTextFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.txt")
	if err := runGen(io.Discard, []string{"-kind", "zipf", "-out", out, "-domain", "64", "-n", "200", "-zipf", "1.0", "-seed", "7", "-format", "text"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var updates updateLog
	if _, err := stream.PipeText(f, 64, &updates); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 200 {
		t.Fatalf("got %d text updates", len(updates))
	}
	if err := stream.Validate(updates, 64); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFormat(t *testing.T) {
	if err := runGen(io.Discard, []string{"-kind", "zipf", "-out", filepath.Join(t.TempDir(), "x"), "-domain", "16", "-n", "10", "-format", "yaml"}); err == nil {
		t.Fatal("expected format error")
	}
}

func TestRunCensusWritesBothStreams(t *testing.T) {
	dir := t.TempDir()
	w := filepath.Join(dir, "wage.sks")
	o := filepath.Join(dir, "ot.sks")
	// Census streams have their own domain; -domain keeps its default.
	if err := runGen(io.Discard, []string{"-kind", "census", "-out", w, "-out2", o, "-n", "2000", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	dw, uw := readStream(t, w)
	do, uo := readStream(t, o)
	if dw != workload.CensusDomain || do != workload.CensusDomain {
		t.Fatalf("domains %d/%d", dw, do)
	}
	if len(uw) != 2000 || len(uo) != 2000 {
		t.Fatalf("lengths %d/%d", len(uw), len(uo))
	}
}
