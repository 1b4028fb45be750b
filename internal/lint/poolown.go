package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwn tracks the ownership of values drawn from a sync.Pool through
// each function, flow-sensitively. The serving layer recycles request
// buffers through pools (internal/serve's groups-body buffers and SKSP
// decode buffers), and a buffer touched after it went back to the pool
// may already be another request's:
//
//   - a value is OWNED from `v := pool.Get()` (or `pool.Get().(*T)`);
//   - `pool.Put(v)` RELEASES it: any later use on the same path is a
//     use-after-Put, and a second Put is a double-Put (two goroutines
//     can then Get the same value);
//   - `defer pool.Put(v)` releases it at function exit, so later uses
//     are fine but a later Put still double-fires.
//
// A branch that may have released the value poisons the path it falls
// through to; a branch that returns does not.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc:  "flags use-after-Put and double-Put of sync.Pool values",
	Run:  runPoolOwn,
}

func runPoolOwn(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd.Body)
		}
	}
}

// poolVar is the ownership state of one pool value on one path.
type poolVar struct {
	// released is the position of the Put that ended this path's
	// ownership (token.NoPos while owned).
	released token.Pos
	// deferred marks a release by a deferred Put, which runs at
	// function exit: later plain uses are legal.
	deferred bool
}

type poolState map[types.Object]*poolVar

// checkPoolFunc analyzes one function body: find every variable bound
// from a sync.Pool Get, then walk the body in statement order tracking
// ownership.
func checkPoolFunc(pass *Pass, body *ast.BlockStmt) {
	st := make(poolState)
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for i := range as.Rhs {
				if obj := poolGetTarget(pass, as, i); obj != nil {
					st[obj] = &poolVar{}
				}
			}
		}
		return true
	})
	if len(st) > 0 {
		walkPoolBlock(pass, body.List, st)
	}
}

// poolGetTarget returns the variable that as's i'th right-hand side, a
// (*sync.Pool).Get call (possibly through a type assertion), is
// assigned to, or nil.
func poolGetTarget(pass *Pass, as *ast.AssignStmt, i int) types.Object {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	e := ast.Unparen(as.Rhs[i])
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || !isPoolMethod(pass, call, "Get") {
		return nil
	}
	id, ok := as.Lhs[i].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// isPoolMethod reports whether call is pool.<name>(...) on a sync.Pool
// (or *sync.Pool) receiver.
func isPoolMethod(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

func walkPoolBlock(pass *Pass, stmts []ast.Stmt, st poolState) {
	for _, s := range stmts {
		walkPoolStmt(pass, s, st)
	}
}

func (st poolState) clone() poolState {
	c := make(poolState, len(st))
	for k, v := range st {
		cv := *v
		c[k] = &cv
	}
	return c
}

// merge ORs released-ness from a fall-through branch into st: if a
// value may have been released on the branch, later uses on the joined
// path are (possibly) invalid and are reported as such.
func (st poolState) merge(branch poolState) {
	for k, v := range st {
		if b := branch[k]; b != nil && v.released == token.NoPos && b.released != token.NoPos {
			*v = *b
		}
	}
}

// terminates reports whether the statement list always leaves the
// enclosing scope (return / branch out), so its exit state never joins
// the fall-through path.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// walkBranch walks one branch body on a copy of st and merges the copy
// back unless the branch always leaves the enclosing scope.
func walkBranch(pass *Pass, stmts []ast.Stmt, st poolState) {
	bst := st.clone()
	walkPoolBlock(pass, stmts, bst)
	if !terminates(stmts) {
		st.merge(bst)
	}
}

func walkPoolStmt(pass *Pass, s ast.Stmt, st poolState) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		walkPoolBlock(pass, s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st)
		}
		checkPoolExpr(pass, s.Cond, st)
		thenSt := st.clone()
		walkPoolBlock(pass, s.Body.List, thenSt)
		if s.Else != nil {
			elseSt := st.clone()
			walkPoolStmt(pass, s.Else, elseSt)
			if eb, ok := s.Else.(*ast.BlockStmt); !ok || !terminates(eb.List) {
				st.merge(elseSt)
			}
		}
		if !terminates(s.Body.List) {
			st.merge(thenSt)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st)
		}
		checkPoolExpr(pass, s.Tag, st)
		for _, c := range s.Body.List {
			walkBranch(pass, c.(*ast.CaseClause).Body, st)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st)
		}
		for _, c := range s.Body.List {
			walkBranch(pass, c.(*ast.CaseClause).Body, st)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := cc.Body
			if cc.Comm != nil {
				body = append([]ast.Stmt{cc.Comm}, body...)
			}
			walkBranch(pass, body, st)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st)
		}
		checkPoolExpr(pass, s.Cond, st)
		loopSt := st.clone()
		walkPoolBlock(pass, s.Body.List, loopSt)
		st.merge(loopSt)
	case *ast.RangeStmt:
		checkPoolExpr(pass, s.X, st)
		loopSt := st.clone()
		walkPoolBlock(pass, s.Body.List, loopSt)
		st.merge(loopSt)
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			// A fresh Get re-establishes ownership (common in loops).
			if obj := poolGetTarget(pass, s, i); obj != nil {
				st[obj] = &poolVar{}
				continue
			}
			checkPoolExpr(pass, rhs, st)
		}
	case *ast.DeferStmt:
		if obj := poolPutArg(pass, s.Call, st); obj != nil {
			release(pass, s.Pos(), obj, st[obj], true)
			return
		}
		checkPoolExpr(pass, s.Call, st)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if obj := poolPutArg(pass, call, st); obj != nil {
				release(pass, call.Pos(), obj, st[obj], false)
				return
			}
		}
		checkPoolExpr(pass, s.X, st)
	case *ast.LabeledStmt:
		walkPoolStmt(pass, s.Stmt, st)
	default:
		// Anything else: scan its expressions for uses after release.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				checkPoolExpr(pass, e, st)
				return false
			}
			return true
		})
	}
}

// poolPutArg returns the tracked value call Puts back, or nil when call
// is not pool.Put(v) on a tracked v.
func poolPutArg(pass *Pass, call *ast.CallExpr, st poolState) types.Object {
	if !isPoolMethod(pass, call, "Put") || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Uses[id]; st[obj] != nil {
		return obj
	}
	return nil
}

// release records a Put of obj at pos, reporting it if this path had
// already released the value.
func release(pass *Pass, pos token.Pos, obj types.Object, v *poolVar, deferred bool) {
	if v.released != token.NoPos {
		pass.Reportf(pos, "pool value %s is Put again (%s at %s): double-Put lets two goroutines share one buffer", obj.Name(), putKind(v), pass.Fset.Position(v.released))
		return
	}
	v.released, v.deferred = pos, deferred
}

func putKind(v *poolVar) string {
	if v.deferred {
		return "deferred Put"
	}
	return "Put"
}

// checkPoolExpr reports uses of released pool values within e.
func checkPoolExpr(pass *Pass, e ast.Expr, st poolState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run later
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := st[pass.Info.Uses[id]]
		if v == nil || v.released == token.NoPos || v.deferred {
			return true
		}
		pass.Reportf(id.Pos(), "pool value %s used after Put (at %s): the pool may already have handed it to another goroutine", id.Name, pass.Fset.Position(v.released))
		return true
	})
}
