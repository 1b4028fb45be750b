// Command mutate measures which tests kill which mutants of the named
// packages. It copies the module to a temporary directory and never
// writes the working tree. There it applies one source mutation at a
// time and runs `go test -json` over every test package of the module
// that imports the mutated package, directly or not, recording the
// tests that fail.
//
// Usage:
//
//	go run ./scripts/mutate [-n 1000] [-seed 1] ./internal/engine ./internal/serve ...
//
// Operators, applied inside function bodies of non-test files:
//
//   - cmp: flip a comparison (< to >=, == to !=, ...);
//   - arith: swap + and - (also += and -=);
//   - drop: drop a statement (a call, assignment, ++/--, send, go,
//     defer or return);
//   - const0, const1: replace an integer constant with 0 or with 1;
//   - negif: negate an if condition;
//   - lock: delete a Lock/Unlock (or RLock/RUnlock) pair on one
//     receiver. These mutants run under -race.
//
// -n samples that many mutants with -seed (0 runs them all), so two
// runs with equal flags over equal sources use the same list.
//
// Before the mutants run, every test of the selected packages runs once
// alone with coverage of the targets. A mutant is then tested only by
// the tests that executed its function: a test that never calls the
// function cannot observe the mutation. A mutant no test reaches
// survives if it compiles. A test that fails before any mutation is
// reported and left out.
//
// Each mutant prints one JSON line on stdout: its id, package, file,
// line, operator, status (killed, survived, uncompiled) and killers,
// named package.Test relative to the module. A timeout counts as a kill
// by the package, named package.(timeout). Per-package totals go to
// stderr at the end.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// testTimeout bounds one package's tests under one mutant; runTimeout
// bounds the whole go test invocation, builds included.
const (
	testTimeout = 30 * time.Second
	runTimeout  = 5 * time.Minute
)

func main() {
	n := flag.Int("n", 0, "number of mutants to sample (0 = all)")
	seed := flag.Int64("seed", 1, "sampling seed")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mutate [-n N] [-seed S] package...")
		os.Exit(2)
	}
	if err := run(*n, *seed, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

// pkgInfo is one package of the module as go list reports it.
type pkgInfo struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
	TestImports  []string
	XTestImports []string
}

// site is one mutation: the n-th site, in walk order, of one file.
type site struct {
	pkg, file string // import path, file name in the package
	index     int
	op        string
	line      int
	funcFrom  int // line range of the enclosing function
	funcTo    int
	id        string
	relPkg    string
	covering  map[string][]string // test package -> covering tests
	status    string
	killers   []string
}

func run(n int, seed int64, args []string) error {
	root, err := goOut(".", "env", "GOMOD")
	if err != nil {
		return err
	}
	root = filepath.Dir(strings.TrimSpace(root))
	module, err := goOut(root, "list", "-m")
	if err != nil {
		return err
	}
	module = strings.TrimSpace(module)
	tmp, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	work := filepath.Join(tmp, "src")
	if err := copyModule(root, work); err != nil {
		return err
	}

	pkgs, err := listPackages(work)
	if err != nil {
		return err
	}
	var targets []string
	for _, a := range args {
		out, err := goOut(work, "list", a)
		if err != nil {
			return err
		}
		targets = append(targets, strings.Fields(out)...)
	}
	rel := func(p string) string { return strings.TrimPrefix(p, module+"/") }

	var sites []*site
	for _, t := range targets {
		p := pkgs[t]
		if p == nil {
			return fmt.Errorf("%s is not a package of %s", t, module)
		}
		for _, f := range p.GoFiles {
			found, err := enumerate(filepath.Join(p.Dir, f))
			if err != nil {
				return err
			}
			for _, s := range found {
				s.pkg, s.file, s.relPkg = t, f, rel(t)
				s.id = fmt.Sprintf("%s/%s:%d:%s#%d", s.relPkg, f, s.line, s.op, s.index)
			}
			sites = append(sites, found...)
		}
	}
	total := len(sites)
	if n > 0 && n < len(sites) {
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		sites = sites[:n]
		sort.SliceStable(sites, func(i, j int) bool {
			if sites[i].pkg != sites[j].pkg {
				return sites[i].pkg < sites[j].pkg
			}
			if sites[i].file != sites[j].file {
				return sites[i].file < sites[j].file
			}
			return sites[i].index < sites[j].index
		})
	}
	fmt.Fprintf(os.Stderr, "mutate: %d sites in %d packages, running %d\n", total, len(targets), len(sites))

	// Every test package whose test binary links a target.
	testPkgs := map[string][]string{} // target -> test packages
	var universe []string
	for path, p := range pkgs {
		if len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue
		}
		closure := map[string]bool{path: true}
		for _, d := range p.Deps {
			closure[d] = true
		}
		for _, imp := range append(append([]string{}, p.TestImports...), p.XTestImports...) {
			closure[imp] = true
			if q := pkgs[imp]; q != nil {
				for _, d := range q.Deps {
					closure[d] = true
				}
			}
		}
		linked := false
		for _, t := range targets {
			if closure[t] {
				testPkgs[t] = append(testPkgs[t], path)
				linked = true
			}
		}
		if linked {
			universe = append(universe, path)
		}
	}
	sort.Strings(universe)

	cov, err := coverage(work, tmp, pkgs, universe, targets)
	if err != nil {
		return err
	}
	for _, s := range sites {
		s.covering = map[string][]string{}
		for _, tp := range testPkgs[s.pkg] {
			for test, blocks := range cov[tp] {
				if blocks.reaches(s.pkg+"/"+s.file, s.funcFrom, s.funcTo) {
					s.covering[tp] = append(s.covering[tp], test)
				}
			}
		}
	}

	out := json.NewEncoder(os.Stdout)
	for i, s := range sites {
		if err := runMutant(work, pkgs[s.pkg], s, rel); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mutate: [%d/%d] %s %s %v\n", i+1, len(sites), s.id, s.status, s.killers)
		if err := out.Encode(map[string]any{
			"id": s.id, "pkg": s.relPkg, "file": s.file, "line": s.line, "op": s.op,
			"status": s.status, "killers": s.killers,
		}); err != nil {
			return err
		}
	}
	summarize(sites)
	return nil
}

// copyModule copies the module at root to dst, leaving out dot
// directories (.git, build outputs) and nested modules.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		relPath, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if relPath != "." {
				if strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return os.MkdirAll(filepath.Join(dst, relPath), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, relPath), data, 0o644)
	})
}

func listPackages(dir string) (map[string]*pkgInfo, error) {
	out, err := goOut(dir, "list", "-json", "./...")
	if err != nil {
		return nil, err
	}
	pkgs := map[string]*pkgInfo{}
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		p := new(pkgInfo)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs[p.ImportPath] = p
	}
	return pkgs, nil
}

func goOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w: %s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}

// enumerate parses file and returns its mutation sites; apply with the
// same walk mutates the n-th of them.
func enumerate(file string) ([]*site, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var sites []*site
	walkSites(f, func(op string, pos token.Pos, fn *ast.FuncDecl, _ func()) {
		sites = append(sites, &site{
			index: len(sites), op: op, line: fset.Position(pos).Line,
			funcFrom: fset.Position(fn.Pos()).Line, funcTo: fset.Position(fn.End()).Line,
		})
	})
	return sites, nil
}

// apply returns file's source with its index-th site mutated.
func apply(file string, index int) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	i := 0
	var mutate func()
	walkSites(f, func(_ string, _ token.Pos, _ *ast.FuncDecl, m func()) {
		if i == index {
			mutate = m
		}
		i++
	})
	if mutate == nil {
		return nil, fmt.Errorf("%s has no site %d", file, index)
	}
	mutate()
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

var negated = map[token.Token]token.Token{
	token.LSS: token.GEQ, token.GEQ: token.LSS,
	token.GTR: token.LEQ, token.LEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
}

// walkSites visits every mutation site of f in a fixed order, passing
// the operator, the site's position, its function and a closure that
// applies the mutation to f.
func walkSites(f *ast.File, visit func(op string, pos token.Pos, fn *ast.FuncDecl, mutate func())) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		lockPairs(fn, visit)
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.GenDecl:
				return x.Tok != token.CONST
			case *ast.ArrayType:
				return false
			case *ast.BinaryExpr:
				if to, ok := negated[x.Op]; ok {
					visit("cmp", x.OpPos, fn, func() { x.Op = to })
				}
				if (x.Op == token.ADD || x.Op == token.SUB) && !isString(x.X) && !isString(x.Y) {
					to := token.SUB
					if x.Op == token.SUB {
						to = token.ADD
					}
					visit("arith", x.OpPos, fn, func() { x.Op = to })
				}
			case *ast.AssignStmt:
				if x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN {
					to := token.SUB_ASSIGN
					if x.Tok == token.SUB_ASSIGN {
						to = token.ADD_ASSIGN
					}
					visit("arith", x.TokPos, fn, func() { x.Tok = to })
				}
			case *ast.BasicLit:
				if x.Kind == token.INT {
					v, err := strconv.ParseUint(x.Value, 0, 64)
					if err == nil && v != 0 {
						visit("const0", x.Pos(), fn, func() { x.Value = "0" })
					}
					if err == nil && v != 1 {
						visit("const1", x.Pos(), fn, func() { x.Value = "1" })
					}
				}
			case *ast.IfStmt:
				visit("negif", x.If, fn, func() { x.Cond = &ast.UnaryExpr{Op: token.NOT, X: &ast.ParenExpr{X: x.Cond}} })
			case *ast.BlockStmt:
				for i, st := range x.List {
					if droppable(st) {
						visit("drop", st.Pos(), fn, func() { x.List[i] = &ast.EmptyStmt{Semicolon: st.Pos(), Implicit: true} })
					}
				}
			case *ast.CaseClause:
				for i, st := range x.Body {
					if droppable(st) {
						visit("drop", st.Pos(), fn, func() { x.Body[i] = &ast.EmptyStmt{Semicolon: st.Pos(), Implicit: true} })
					}
				}
			}
			return true
		})
	}
}

func isString(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// droppable reports whether dropping st leaves a program that usually
// compiles. Lock and Unlock calls are left to the lock operator.
func droppable(st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ExprStmt:
		_, isLock := lockCall(x.X)
		return !isLock
	case *ast.AssignStmt:
		return x.Tok != token.DEFINE
	case *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.ReturnStmt:
		return true
	case *ast.DeferStmt:
		_, isLock := lockCall(x.Call)
		return !isLock
	}
	return false
}

// lockCall returns the receiver and method of a call to Lock, Unlock,
// RLock or RUnlock with no arguments.
func lockCall(e ast.Expr) (recv string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		var buf bytes.Buffer
		if err := format.Node(&buf, token.NewFileSet(), sel.X); err != nil {
			return "", false
		}
		return buf.String() + "." + sel.Sel.Name, true
	}
	return "", false
}

// lockPairs visits one lock site per Lock (RLock) statement of fn that
// has a later Unlock (RUnlock), plain or deferred, on the same receiver
// in the same function: the mutation deletes both.
func lockPairs(fn *ast.FuncDecl, visit func(string, token.Pos, *ast.FuncDecl, func())) {
	type stmtRef struct {
		name string
		list []ast.Stmt
		i    int
	}
	var refs []stmtRef
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		var list []ast.Stmt
		switch x := node.(type) {
		case *ast.BlockStmt:
			list = x.List
		case *ast.CaseClause:
			list = x.Body
		case *ast.FuncLit:
			return false
		}
		for i, st := range list {
			var e ast.Expr
			switch s := st.(type) {
			case *ast.ExprStmt:
				e = s.X
			case *ast.DeferStmt:
				e = s.Call
			}
			if name, ok := lockCall(e); ok {
				refs = append(refs, stmtRef{name, list, i})
			}
		}
		return true
	})
	sort.SliceStable(refs, func(i, j int) bool { return refs[i].list[refs[i].i].Pos() < refs[j].list[refs[j].i].Pos() })
	used := map[int]bool{}
	for i, lock := range refs {
		recv, ok := strings.CutSuffix(lock.name, ".Lock")
		unlock := recv + ".Unlock"
		if !ok {
			if recv, ok = strings.CutSuffix(lock.name, ".RLock"); !ok {
				continue
			}
			unlock = recv + ".RUnlock"
		}
		for j := i + 1; j < len(refs); j++ {
			if used[j] || refs[j].name != unlock {
				continue
			}
			used[j] = true
			l, u := lock, refs[j]
			pos := l.list[l.i].Pos()
			visit("lock", pos, fn, func() {
				l.list[l.i] = &ast.EmptyStmt{Semicolon: pos, Implicit: true}
				u.list[u.i] = &ast.EmptyStmt{Semicolon: u.list[u.i].Pos(), Implicit: true}
			})
			break
		}
	}
}

// blocks is the coverage one test left: per file, the line ranges of
// the blocks it executed.
type blocks map[string][][2]int

func (b blocks) reaches(file string, from, to int) bool {
	for _, r := range b[file] {
		if r[0] <= to && r[1] >= from {
			return true
		}
	}
	return false
}

// coverage builds each test package once with coverage of the targets
// and runs each of its tests alone, returning what every test executed.
func coverage(work, tmp string, pkgs map[string]*pkgInfo, universe, targets []string) (map[string]map[string]blocks, error) {
	cov := map[string]map[string]blocks{}
	var mu sync.Mutex
	for k, tp := range universe {
		bin := filepath.Join(tmp, fmt.Sprintf("cover%d.test", k))
		if _, err := goOut(work, "test", "-c", "-vet=off", "-cover", "-covermode=set",
			"-coverpkg="+strings.Join(targets, ","), "-o", bin, tp); err != nil {
			return nil, err
		}
		list, err := exec.Command(bin, "-test.list", ".").Output()
		if err != nil {
			return nil, fmt.Errorf("%s: listing tests: %w", tp, err)
		}
		var tests []string
		for _, name := range strings.Fields(string(list)) {
			if !strings.HasPrefix(name, "Benchmark") {
				tests = append(tests, name)
			}
		}
		cov[tp] = map[string]blocks{}
		sem := make(chan struct{}, 2)
		var wg sync.WaitGroup
		var failed []string
		for i, test := range tests {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				profile := filepath.Join(tmp, fmt.Sprintf("cover%d-%d.out", k, i))
				coverDir := filepath.Join(tmp, fmt.Sprintf("gocover%d-%d", k, i))
				cmd := exec.Command(bin, "-test.run", "^"+test+"$", "-test.count=1",
					"-test.timeout=120s", "-test.coverprofile="+profile, "-test.gocoverdir="+coverDir)
				cmd.Dir = pkgs[tp].Dir
				runErr := os.MkdirAll(coverDir, 0o755)
				if runErr == nil {
					runErr = cmd.Run()
				}
				b, err := readProfile(profile)
				mu.Lock()
				defer mu.Unlock()
				if runErr != nil || err != nil {
					failed = append(failed, test)
					return
				}
				cov[tp][test] = b
			}()
		}
		wg.Wait()
		sort.Strings(failed)
		for _, test := range failed {
			fmt.Fprintf(os.Stderr, "mutate: %s.%s fails without a mutation; left out\n", tp, test)
		}
		fmt.Fprintf(os.Stderr, "mutate: coverage of %s: %d tests\n", tp, len(cov[tp]))
	}
	return cov, nil
}

func readProfile(path string) (blocks, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := blocks{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// file.go:startLine.startCol,endLine.endCol numStmts count
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || strings.HasSuffix(line, " 0") {
			continue
		}
		file, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		start, rest, _ := strings.Cut(rest, ",")
		end, _, _ := strings.Cut(rest, " ")
		from, _ := strconv.Atoi(strings.Split(start, ".")[0])
		to, _ := strconv.Atoi(strings.Split(end, ".")[0])
		b[file] = append(b[file], [2]int{from, to})
	}
	return b, sc.Err()
}

// testEvent is one line of go test -json.
type testEvent struct {
	Action  string
	Package string
	Test    string
	Output  string
}

// runMutant writes the mutant into the copy, runs its covering tests,
// restores the file and sets s.status and s.killers.
func runMutant(work string, p *pkgInfo, s *site, rel func(string) string) error {
	path := filepath.Join(p.Dir, s.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mutated, err := apply(path, s.index)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		return err
	}
	err = testMutant(work, s, rel)
	if restoreErr := os.WriteFile(path, orig, 0o644); restoreErr != nil {
		return restoreErr
	}
	return err
}

// testMutant runs the covering tests of the mutant now in the copy.
func testMutant(work string, s *site, rel func(string) string) error {
	if len(s.covering) == 0 {
		// No test reaches it: it survives if it compiles.
		s.status = "survived"
		if _, err := goOut(work, "build", s.pkg); err != nil {
			s.status = "uncompiled"
		}
		return nil
	}

	var tps, names []string
	seen := map[string]bool{}
	for tp, tests := range s.covering {
		tps = append(tps, tp)
		for _, t := range tests {
			if !seen[t] {
				seen[t] = true
				names = append(names, t)
			}
		}
	}
	sort.Strings(tps)
	sort.Strings(names)
	args := []string{"test", "-json", "-count=1", "-vet=off", "-ldflags=-w",
		"-timeout=" + testTimeout.String(), "-run", "^(" + strings.Join(names, "|") + ")$"}
	if s.op == "lock" {
		args = append(args, "-race")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append(args, tps...)...)
	cmd.Dir = work
	out, runErr := cmd.Output()
	if runErr != nil && !errors.As(runErr, new(*exec.ExitError)) {
		return runErr
	}

	killers := map[string]bool{}
	failedPkgs, timedOut, buildFailed := map[string]bool{}, map[string]bool{}, false
	testFailed := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var ev testEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		switch {
		case ev.Action == "build-fail":
			buildFailed = true
		case ev.Action == "fail" && ev.Test != "":
			top, _, _ := strings.Cut(ev.Test, "/")
			killers[rel(ev.Package)+"."+top] = true
			testFailed[ev.Package] = true
		case ev.Action == "fail":
			failedPkgs[ev.Package] = true
		case ev.Action == "output" && strings.Contains(ev.Output, "panic: test timed out"):
			timedOut[ev.Package] = true
		case ev.Action == "output" && strings.Contains(ev.Output, "[build failed]"):
			buildFailed = true
		}
	}
	if ctx.Err() != nil {
		for _, tp := range tps {
			timedOut[tp] = true
		}
	}
	for tp := range timedOut {
		killers[rel(tp)+".(timeout)"] = true
	}
	for tp := range failedPkgs {
		if !testFailed[tp] && !timedOut[tp] && !buildFailed {
			killers[rel(tp)+".(package)"] = true
		}
	}
	switch {
	case buildFailed && len(killers) == 0:
		s.status = "uncompiled"
	case len(killers) > 0:
		s.status = "killed"
		for k := range killers {
			s.killers = append(s.killers, k)
		}
		sort.Strings(s.killers)
	default:
		s.status = "survived"
	}
	return nil
}

// summarize prints per-package totals: mutants, compiled, killed,
// survived (of which no test reached), and the mutation score.
func summarize(sites []*site) {
	type totals struct{ mutants, compiled, killed, survived, unreached int }
	byPkg := map[string]*totals{}
	var names []string
	for _, s := range sites {
		t := byPkg[s.relPkg]
		if t == nil {
			t = new(totals)
			byPkg[s.relPkg] = t
			names = append(names, s.relPkg)
		}
		t.mutants++
		switch s.status {
		case "killed":
			t.compiled++
			t.killed++
		case "survived":
			t.compiled++
			t.survived++
			if len(s.covering) == 0 {
				t.unreached++
			}
		}
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-22s %7s %8s %6s %8s %9s %6s\n", "package", "mutants", "compiled", "killed", "survived", "unreached", "score")
	for _, name := range names {
		t := byPkg[name]
		score := 0.0
		if t.compiled > 0 {
			score = 100 * float64(t.killed) / float64(t.compiled)
		}
		fmt.Fprintf(os.Stderr, "%-22s %7d %8d %6d %8d %9d %5.1f%%\n", name, t.mutants, t.compiled, t.killed, t.survived, t.unreached, score)
	}
}
