package skimsketch

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyPackages are the packages under internal/ that only tests may
// import.
var testOnlyPackages = map[string]bool{
	"skimsketch/internal/lint/analysistest": true, // the analyzers' fixture harness
}

// TestInternalPackagesHaveAProgram keeps test-only code out of
// internal/: every package there must be imported by some non-test file
// of the root module or of bench/skimbench. A package only tests import
// is a path nothing in production calls.
func TestInternalPackagesHaveAProgram(t *testing.T) {
	imported := map[string]bool{}
	var packages []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			imported[ip] = true
		}
		if dir := filepath.ToSlash(filepath.Dir(p)); strings.HasPrefix(dir, "internal/") {
			packages = append(packages, "skimsketch/"+dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no package under internal/")
	}
	for _, pkg := range packages {
		if !imported[pkg] && !testOnlyPackages[pkg] {
			t.Errorf("%s is imported by no non-test file of the root module or bench/skimbench", pkg)
			imported[pkg] = true // report each package once
		}
	}
}
