// Package lint is a small, dependency-free analysis framework plus the
// repo's custom analyzers ("sketchlint"). Each analyzer enforces an
// invariant the tests cannot see everywhere, and stays only while a
// recorded mutation of real code shows it catching a defect that go
// vet, -race and the tests all miss (docs/LINTING.md).
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature
// (Analyzer, Pass, Diagnostic, testdata fixtures with // want
// comments) but is built entirely on the standard library's go/ast,
// go/types and go/importer, because this module deliberately has no
// third-party dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments ("//sketchlint:ignore <name> -- <reason>").
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to the package and returns the surviving
// diagnostics: suppressed findings (see below) are dropped, and the
// result is sorted by position for stable output.
//
// A finding is suppressed by a comment of the form
//
//	//sketchlint:ignore <name>[,<name>...] -- <reason>
//
// placed on the flagged line or on the line immediately above it. The
// reason is mandatory: a bare or reasonless directive suppresses
// nothing and is itself reported as a finding (analyzer "directive"),
// so a silent ignore cannot slip through review.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = filterSuppressed(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ignorePrefix detects any attempt at a suppression directive, valid
// or not, so malformed ones can be reported rather than silently doing
// nothing (or silently suppressing without a reason).
var ignorePrefix = regexp.MustCompile(`^//\s*sketchlint:ignore\b(.*)$`)

// ignoreDirective matches the required directive form:
// "//sketchlint:ignore name1,name2 -- reason". The reason must be
// non-empty after the "--" separator.
var ignoreDirective = regexp.MustCompile(`^//sketchlint:ignore\s+([A-Za-z0-9_,]+)\s+--\s+(\S.*)$`)

func filterSuppressed(pkg *Package, diags []Diagnostic) []Diagnostic {
	// file → line → set of suppressed analyzer names ("" means none).
	suppressed := make(map[string]map[int]map[string]bool)
	mark := func(pos token.Position, names []string) {
		lines := suppressed[pos.Filename]
		if lines == nil {
			lines = make(map[int]map[string]bool)
			suppressed[pos.Filename] = lines
		}
		set := lines[pos.Line]
		if set == nil {
			set = make(map[string]bool)
			lines[pos.Line] = set
		}
		for _, n := range names {
			set[n] = true
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !ignorePrefix.MatchString(c.Text) {
					continue
				}
				m := ignoreDirective.FindStringSubmatch(c.Text)
				if m == nil {
					// A directive that names no analyzer or gives no
					// "-- reason" suppresses nothing and is itself a
					// finding: a silent ignore is a future bug's hiding
					// spot.
					diags = append(diags, Diagnostic{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "directive",
						Message:  fmt.Sprintf("malformed suppression %q: the required form is //sketchlint:ignore <analyzer>[,<analyzer>] -- <reason>", c.Text),
					})
					continue
				}
				names := strings.Split(m[1], ",")
				pos := pkg.Fset.Position(c.Pos())
				// The directive covers its own line and the next one, so
				// it works both trailing a statement and on its own line
				// above it.
				mark(pos, names)
				pos.Line++
				mark(pos, names)
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if set, ok := suppressed[d.Pos.Filename][d.Pos.Line]; ok && set[d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// All returns every sketchlint analyzer in a stable order.
func All() []*Analyzer {
	return []*Analyzer{LockScope, PoolOwn, CtxLeak, AllocLen, ErrCtr}
}

// ByName resolves a comma-separated analyzer selection.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// --- shared type/AST helpers used by several analyzers ---

// calleeFunc resolves the called function or method of a call
// expression, or nil for calls through function values, conversions
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		// Method or qualified package function.
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathTail reports whether the function's defining package path ends
// in the given last element (so both "skimsketch/internal/core" and a
// fixture's ".../testdata/src/lockscope/core" count as "core").
func pkgPathTail(f *types.Func, tail string) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == tail || strings.HasSuffix(path, "/"+tail)
}
