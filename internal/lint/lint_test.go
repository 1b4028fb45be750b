package lint_test

import (
	"strings"
	"testing"

	"skimsketch/internal/lint"
)

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("All() has %d analyzers, want 5", len(all))
	}
	names := make([]string, 0, len(all))
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a)
		}
		names = append(names, a.Name)
	}
	got := strings.Join(names, ",")
	if got != "lockscope,poolown,ctxleak,alloclen,errctr" {
		t.Fatalf("analyzer order = %s", got)
	}

	two, err := lint.ByName("poolown, lockscope")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "poolown" || two[1].Name != "lockscope" {
		t.Fatalf("ByName selection = %v", two)
	}

	if _, err := lint.ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestIgnoreDirective pins the hardened suppression contract: only the
// full form "//sketchlint:ignore <analyzer>[,<analyzer>] -- <reason>"
// suppresses a finding, and any attempt at the directive that omits
// the analyzer name or the reason suppresses nothing and is reported
// as a finding itself (analyzer "directive").
func TestIgnoreDirective(t *testing.T) {
	pkgs, err := lint.LoadPackages("./testdata/src/directive")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags := lint.Run(pkgs[0], []*lint.Analyzer{lint.ErrCtr})

	var directive, errctr int
	for _, d := range diags {
		switch d.Analyzer {
		case "directive":
			directive++
			if !strings.Contains(d.Message, "malformed suppression") {
				t.Errorf("directive finding message = %q", d.Message)
			}
		case "errctr":
			errctr++
		default:
			t.Errorf("unexpected analyzer in %s", d)
		}
	}
	// reasonless, bare and spaced each yield a directive finding; their
	// three comparisons plus wrongName's survive unsuppressed; the two
	// well-formed directives suppress theirs.
	if directive != 3 {
		t.Errorf("directive findings = %d, want 3:\n%v", directive, diags)
	}
	if errctr != 4 {
		t.Errorf("surviving errctr findings = %d, want 4:\n%v", errctr, diags)
	}
}

// TestLoadPackagesTypeChecks loads a real repo package through the
// export-data loader and sanity-checks the type information that every
// analyzer depends on.
func TestLoadPackagesTypeChecks(t *testing.T) {
	pkgs, err := lint.LoadPackages("skimsketch/internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types.Name() != "stats" {
		t.Fatalf("package name = %q", pkg.Types.Name())
	}
	if len(pkg.Files) == 0 || len(pkg.Info.Defs) == 0 {
		t.Fatal("loaded package has no syntax or type info")
	}
	if pkg.Types.Scope().Lookup("MedianInt64") == nil {
		t.Fatal("MedianInt64 not found in package scope")
	}
}

func TestLoadPackagesBadPattern(t *testing.T) {
	if _, err := lint.LoadPackages("skimsketch/internal/doesnotexist"); err == nil {
		t.Fatal("LoadPackages accepted a nonexistent package")
	}
}
