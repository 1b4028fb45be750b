package main

import (
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

func TestRunValidation(t *testing.T) {
	if err := run("zipf", "", "", 16, 10, 1.0, 0, 1, 0, "binary"); err == nil {
		t.Fatal("expected error for missing -out")
	}
	if err := run("zipf", "x", "", 16, 0, 1.0, 0, 1, 0, "binary"); err == nil {
		t.Fatal("expected error for n=0")
	}
	if err := run("nope", "x", "", 16, 10, 1.0, 0, 1, 0, "binary"); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if err := run("census", filepath.Join(t.TempDir(), "w.sks"), "", 16, 10, 1.0, 0, 1, 0, "binary"); err == nil {
		t.Fatal("expected error for census without -out2")
	}
	if err := run("zipf", "x", "", 0, 10, 1.0, 0, 1, 0, "binary"); err == nil {
		t.Fatal("expected error for zero domain")
	}
}

func TestRunZipfWritesStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f.sks")
	if err := run("zipf", out, "", 256, 1000, 1.0, 10, 7, 0, "binary"); err != nil {
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
	if err := run("uniform", out, "", 64, 500, 0, 0, 3, 0.5, "binary"); err != nil {
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
	if err := run("zipf", out, "", 64, 200, 1.0, 0, 7, 0, "text"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var updates updateLog
	if _, err := stream.PipeText(f, &updates); err != nil {
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
	if err := run("zipf", filepath.Join(t.TempDir(), "x"), "", 16, 10, 1.0, 0, 1, 0, "yaml"); err == nil {
		t.Fatal("expected format error")
	}
}

func TestRunCensusWritesBothStreams(t *testing.T) {
	dir := t.TempDir()
	w := filepath.Join(dir, "wage.sks")
	o := filepath.Join(dir, "ot.sks")
	if err := run("census", w, o, 0, 2000, 0, 0, 5, 0, "binary"); err != nil {
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
