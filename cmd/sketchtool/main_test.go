package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func writeStream(t *testing.T, path string, seed int64, n int) {
	t.Helper()
	z, _ := workload.NewZipf(1024, 1.2, seed)
	if err := stream.WriteFile(path, 1024, workload.MakeStream(z, n)); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInfoJoinMergePipeline(t *testing.T) {
	dir := t.TempDir()
	fStream := filepath.Join(dir, "f.sks")
	gStream := filepath.Join(dir, "g.sks")
	writeStream(t, fStream, 1, 5000)
	writeStream(t, gStream, 2, 5000)
	fSketch := filepath.Join(dir, "f.skhs")
	gSketch := filepath.Join(dir, "g.skhs")

	if err := runBuild(io.Discard, []string{"-in", fStream, "-out", fSketch, "-tables", "5", "-buckets", "256", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild(io.Discard, []string{"-in", gStream, "-out", gSketch, "-tables", "5", "-buckets", "256", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if err := runInfo(io.Discard, []string{"-in", fSketch}); err != nil {
		t.Fatal(err)
	}
	if err := runJoin(io.Discard, []string{"-f", fSketch, "-g", gSketch, "-domain", "1024"}); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "all.skhs")
	if err := runMerge(io.Discard, []string{"-out", merged, fSketch, gSketch}); err != nil {
		t.Fatal(err)
	}
	// Merged sketch summarizes both streams: net count doubles.
	sk, err := readSketch(merged)
	if err != nil {
		t.Fatal(err)
	}
	if sk.NetCount() != 10000 {
		t.Fatalf("merged net = %d, want 10000", sk.NetCount())
	}
}

func TestValidationErrors(t *testing.T) {
	if err := runBuild(io.Discard, []string{"-in", "", "-out", ""}); err == nil {
		t.Fatal("build must require paths")
	}
	if err := runBuild(io.Discard, []string{"-in", "missing", "-out", "x", "-tables", "0"}); err == nil {
		t.Fatal("build must reject bad config")
	}
	if err := runInfo(io.Discard, []string{}); err == nil {
		t.Fatal("info must require -in")
	}
	if err := runInfo(io.Discard, []string{"-in", filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("info must fail on missing file")
	}
	if err := runMerge(io.Discard, []string{"-out", ""}); err == nil {
		t.Fatal("merge must require -out")
	}
	if err := runMerge(io.Discard, []string{"-out", "x"}); err == nil {
		t.Fatal("merge must require inputs")
	}
	if err := runJoin(io.Discard, []string{"-f", "", "-g", "", "-domain", "0"}); err == nil {
		t.Fatal("join must require flags")
	}
}

func TestJoinRejectsIncompatibleSketches(t *testing.T) {
	dir := t.TempDir()
	s := filepath.Join(dir, "s.sks")
	writeStream(t, s, 1, 100)
	a := filepath.Join(dir, "a.skhs")
	b := filepath.Join(dir, "b.skhs")
	if err := runBuild(io.Discard, []string{"-in", s, "-out", a, "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild(io.Discard, []string{"-in", s, "-out", b, "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := runJoin(io.Discard, []string{"-f", a, "-g", b, "-domain", "1024"}); err == nil {
		t.Fatal("join must reject sketches with different seeds")
	}
	if err := runMerge(io.Discard, []string{"-out", filepath.Join(dir, "m.skhs"), a, b}); err == nil {
		t.Fatal("merge must reject sketches with different seeds")
	}
}

func TestInfoRejectsCorruptFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.skhs")
	if err := writeStreamFile(p); err != nil {
		t.Fatal(err)
	}
	if err := runInfo(io.Discard, []string{"-in", p}); err == nil {
		t.Fatal("info must reject non-sketch files")
	}
}

func writeStreamFile(p string) error {
	return stream.WriteFile(p, 8, []stream.Update{stream.Insert(1)})
}

// TestReadmeWalkthrough runs every `go run ./cmd/sketchtool` line of the
// README's "File formats and tools" block, in order, in process, in a
// temp dir. A subcommand or flag the README names but sketchtool lacks
// fails the test.
func TestReadmeWalkthrough(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## File formats and tools")
	if !ok {
		t.Fatal("README has no \"File formats and tools\" section")
	}
	_, block, _ := strings.Cut(section, "```\n")
	block, _, _ = strings.Cut(block, "```")
	var lines [][]string
	for _, line := range strings.Split(block, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[0] != "go" || fields[1] != "run" || fields[2] != "./cmd/sketchtool" {
			continue
		}
		args := fields[3:]
		for i, f := range args {
			if strings.HasPrefix(f, "#") {
				args = args[:i]
				break
			}
		}
		lines = append(lines, args)
	}
	if len(lines) == 0 {
		t.Fatal("the README block has no `go run ./cmd/sketchtool` line")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, args := range lines {
		out := capture(t, run, args...)
		t.Logf("sketchtool %s\n%s", strings.Join(args, " "), out)
	}
}
