package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skimsketch/internal/lint"
)

// fixtures is where each analyzer's flagging fixture (<name>) and clean
// fixture (<name>_clean) live.
const fixtures = "../../internal/lint/testdata/src/"

// capture runs main.run with stdout/stderr redirected to files and
// returns the exit code and outputs.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "err"))
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	outF.Close()
	errF.Close()
	ob, _ := os.ReadFile(filepath.Join(dir, "out"))
	eb, _ := os.ReadFile(filepath.Join(dir, "err"))
	return code, string(ob), string(eb)
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing %s:\n%s", a.Name, out)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, errOut := capture(t, "-analyzers", "nosuch", "./...")
	if code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("stderr = %q", errOut)
	}
}

// TestFindingsExitNonZero runs the full suite over a fixture package
// that violates several invariants and checks the exit code and output
// format contract that CI depends on.
func TestFindingsExitNonZero(t *testing.T) {
	code, out, errOut := capture(t, fixtures+"alloclen")
	if code != 1 {
		t.Fatalf("exit = %d (stderr %q), want 1", code, errOut)
	}
	if !strings.Contains(out, "[alloclen]") || !strings.Contains(out, "alloclen.go") {
		t.Errorf("findings output missing file or analyzer tag:\n%s", out)
	}
	if !strings.Contains(errOut, "finding(s)") {
		t.Errorf("stderr summary missing: %q", errOut)
	}
}

// TestNewAnalyzerProbes is the injected-violation check for every
// analyzer: running it alone over its flagging fixture must exit 1 with
// tagged findings — proof that a real violation fails the CI job, not
// just the unit tests.
func TestNewAnalyzerProbes(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			code, out, errOut := capture(t, "-analyzers", a.Name, fixtures+a.Name)
			if code != 1 {
				t.Fatalf("exit = %d (stderr %q), want 1", code, errOut)
			}
			if !strings.Contains(out, "["+a.Name+"]") {
				t.Errorf("findings output missing [%s] tag:\n%s", a.Name, out)
			}
		})
	}
}

// TestCleanFixturesAllAnalyzers runs the full suite over every
// analyzer's clean fixture at once: no analyzer may fire on another's
// sanctioned patterns.
func TestCleanFixturesAllAnalyzers(t *testing.T) {
	var args []string
	for _, a := range lint.All() {
		args = append(args, fixtures+a.Name+"_clean")
	}
	code, out, errOut := capture(t, args...)
	if code != 0 {
		t.Fatalf("clean fixtures exited %d:\n%s%s", code, out, errOut)
	}
}

// TestRepoIsClean is the acceptance criterion: the suite must exit
// clean over the whole repository.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and checks every package")
	}
	code, out, errOut := capture(t, "../...")
	if code != 0 {
		t.Fatalf("sketchlint over the repo exited %d:\n%s%s", code, out, errOut)
	}
}
