package main

import (
	"os"
	"path/filepath"
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

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

func TestRunValidation(t *testing.T) {
	if err := run("", "x", 3, 8, 1, false, false, false, 0); err == nil {
		t.Fatal("expected error for missing -f")
	}
	if err := run("x", "", 3, 8, 1, false, false, false, 0); err == nil {
		t.Fatal("expected error for missing -g")
	}
	if err := run("x", "y", 0, 8, 1, false, false, false, 0); err == nil {
		t.Fatal("expected error for bad sketch config")
	}
	f, g := writeStreams(t)
	if err := run(f, filepath.Join(t.TempDir(), "missing.sks"), 3, 8, 1, false, false, false, 0); err == nil {
		t.Fatal("expected error for missing stream file")
	}
	if err := run(f, g, 3, 8, 1, false, false, true, 0); err == nil {
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
	if err := run(fPath, gPath, 5, 64, 1, true, false, true, 64); err != nil {
		t.Fatal(err)
	}
	// Parse errors propagate.
	if err := os.WriteFile(fPath, []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(fPath, gPath, 5, 64, 1, false, false, true, 64); err == nil {
		t.Fatal("expected text parse error")
	}
}

func TestRunEstimates(t *testing.T) {
	f, g := writeStreams(t)
	if err := run(f, g, 5, 256, 7, false, false, false, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithExactAndAGMS(t *testing.T) {
	f, g := writeStreams(t)
	if err := run(f, g, 5, 64, 7, true, true, false, 0); err != nil {
		t.Fatal(err)
	}
}
