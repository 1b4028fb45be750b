package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockScope keeps O(domain) work out of critical sections. The engine
// answers a query by cloning its two synopses under its locks and
// estimating on the clones after releasing them
// (internal/engine/engine.go). An estimate or a skim walks the whole
// domain, tens of milliseconds at m = 2^20, and every ingest request
// takes e.mu to be admitted, so an estimate under e.mu stalls ingest
// for as long as it runs.
//
// It flags a call to one of the expensive entry points below made while
// a sync.Mutex or RWMutex locked in the same function is held: between
// x.Lock() (or RLock) and the matching x.Unlock(), or anywhere after a
// Lock whose Unlock is deferred. Each function and function literal is
// its own region, and a branch's lock operations do not leak past it.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "flags O(domain) estimation/skim calls made while a mutex is held",
	Run:  runLockScope,
}

// expensiveEntryPoints are matched by defining package path tail and
// function-name prefix.
var expensiveEntryPoints = []struct{ pkgTail, namePrefix string }{
	{"core", "EstimateJoin"}, // EstimateJoin, EstimateJoinSkimmed
	{"core", "SkimDense"},    // SkimDense, SkimDenseParallel
	{"core", "EstimateSelfJoin"},
	{"dyadic", "Skim"}, // Hierarchy.Skim
}

func isExpensiveEntry(f *types.Func) bool {
	for _, e := range expensiveEntryPoints {
		if strings.HasPrefix(f.Name(), e.namePrefix) && pkgPathTail(f, e.pkgTail) {
			return true
		}
	}
	return false
}

func runLockScope(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walkLockBody(pass, fd.Body)
			}
		}
	}
}

// lockState is the set of locks held at a program point.
type lockState struct {
	// byRecv maps the receiver text of a Lock call ("e.mu") to its
	// description ("e.mu.Lock"), so the matching Unlock releases it.
	byRecv map[string]string
	// untilEnd holds locks whose Unlock is deferred.
	untilEnd []string
}

func (s *lockState) clone() *lockState {
	c := &lockState{byRecv: make(map[string]string, len(s.byRecv))}
	for k, v := range s.byRecv {
		c.byRecv[k] = v
	}
	c.untilEnd = append([]string(nil), s.untilEnd...)
	return c
}

// held describes one held lock, or returns "" when none is.
func (s *lockState) held() string {
	for _, d := range s.untilEnd {
		return d
	}
	for _, d := range s.byRecv {
		return d
	}
	return ""
}

// walkLockBody analyzes one function or function-literal body,
// starting with no locks held.
func walkLockBody(pass *Pass, body *ast.BlockStmt) {
	walkLockStmts(pass, body.List, &lockState{byRecv: map[string]string{}})
}

func walkLockStmts(pass *Pass, stmts []ast.Stmt, state *lockState) {
	for _, stmt := range stmts {
		walkLockStmt(pass, stmt, state)
	}
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, state *lockState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && applyLockOp(pass, call, state, false) {
			return
		}
		scanLocked(pass, s, state)
	case *ast.DeferStmt:
		if applyLockOp(pass, s.Call, state, true) {
			return
		}
		scanLocked(pass, s, state)
	case *ast.BlockStmt:
		walkLockStmts(pass, s.List, state)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, state)
		}
		scanLocked(pass, s.Cond, state)
		walkLockStmt(pass, s.Body, state.clone())
		if s.Else != nil {
			walkLockStmt(pass, s.Else, state.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, state)
		}
		if s.Cond != nil {
			scanLocked(pass, s.Cond, state)
		}
		inner := state.clone()
		walkLockStmt(pass, s.Body, inner)
		if s.Post != nil {
			walkLockStmt(pass, s.Post, inner)
		}
	case *ast.RangeStmt:
		scanLocked(pass, s.X, state)
		walkLockStmt(pass, s.Body, state.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, state)
		}
		if s.Tag != nil {
			scanLocked(pass, s.Tag, state)
		}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CaseClause)
			inner := state.clone()
			for _, e := range cc.List {
				scanLocked(pass, e, inner)
			}
			walkLockStmts(pass, cc.Body, inner)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, state)
		}
		for _, clause := range s.Body.List {
			walkLockStmts(pass, clause.(*ast.CaseClause).Body, state.clone())
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			inner := state.clone()
			if cc.Comm != nil {
				walkLockStmt(pass, cc.Comm, inner)
			}
			walkLockStmts(pass, cc.Body, inner)
		}
	case *ast.LabeledStmt:
		walkLockStmt(pass, s.Stmt, state)
	case *ast.GoStmt:
		// The goroutine does not run inside the spawner's critical
		// section: only its function literals are walked, as regions of
		// their own.
		scanLocked(pass, s.Call, &lockState{})
	default:
		scanLocked(pass, stmt, state)
	}
}

// applyLockOp updates state for a Lock/RLock/Unlock/RUnlock call and
// reports whether call was one. deferred marks a call in a defer
// statement: a deferred Unlock keeps its lock held to the end.
func applyLockOp(pass *Pass, call *ast.CallExpr, state *lockState, deferred bool) bool {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := types.ExprString(sel.X)
	switch f.Name() {
	case "Lock", "RLock":
		state.byRecv[recv] = recv + "." + f.Name()
	case "Unlock", "RUnlock":
		if d, ok := state.byRecv[recv]; ok && deferred {
			state.untilEnd = append(state.untilEnd, d)
		}
		delete(state.byRecv, recv)
	default:
		return false
	}
	return true
}

// scanLocked reports expensive calls in n made under state's locks, and
// walks every function literal in n as a region of its own.
func scanLocked(pass *Pass, n ast.Node, state *lockState) {
	ast.Inspect(n, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			walkLockBody(pass, fl.Body)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if held := state.held(); held != "" {
			if f := calleeFunc(pass.Info, call); f != nil && isExpensiveEntry(f) {
				pass.Reportf(call.Pos(), "call to O(domain) entry point %s while %s is held; snapshot under the lock and estimate outside it", f.Name(), held)
			}
		}
		return true
	})
}
