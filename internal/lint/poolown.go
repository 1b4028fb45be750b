package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwn tracks the ownership of values drawn from a sync.Pool through
// each function, flow-sensitively. The SKSP hot path (internal/serve's
// stream listener) decodes every frame into a pooled *wire.Data and
// hands the buffers to the engine with a release callback; the engine's
// shard workers touch those buffers concurrently until the callback
// fires. The whole scheme is only correct if every code path follows
// the ownership protocol, which the type system cannot see:
//
//   - a value is OWNED from `v := pool.Get()` (or `pool.Get().(*T)`);
//   - `pool.Put(v)` RELEASES it: any later use on the same path is a
//     use-after-Put, and a second Put is a double-Put (two goroutines
//     can then Get the same value);
//   - passing a closure that Puts v into another function TRANSFERS
//     ownership at that call (the release-callback idiom): v must not
//     be touched afterwards. The one sanctioned exception is error-path
//     reclaim — when the transferring call's error result is checked,
//     Puts inside branches conditioned on that error are the caller
//     taking ownership back on the paths where the callee never
//     accepted it (the engine's IngestGroups contract);
//   - an owned value captured by a `go` statement or stored into a
//     field, map, or global escapes single-owner tracking entirely and
//     is flagged unless the site carries an ownership-transfer
//     annotation (`//sketchlint:ignore poolown -- <why the handoff is
//     safe>`).
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc:  "flags use-after-Put, double-Put, and untracked escapes of sync.Pool values",
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

// poolVar is one tracked pool value within a function.
type poolVar struct {
	obj types.Object
	// released is the position of the Put or ownership transfer that
	// ended this path's ownership (token.NoPos while owned).
	released token.Pos
	// how describes the releasing event for diagnostics.
	how string
	// errObj is deferSentinel when the release was a deferred Put
	// (which runs at function exit, so later plain uses are legal).
	errObj types.Object
}

// checkPoolFunc analyzes one function body: find every variable bound
// from a sync.Pool Get, then walk the body in statement order tracking
// ownership.
func checkPoolFunc(pass *Pass, body *ast.BlockStmt) {
	vars := poolGets(pass, body)
	if len(vars) == 0 {
		return
	}
	st := make(map[types.Object]*poolVar, len(vars))
	for _, o := range vars {
		st[o] = &poolVar{obj: o}
	}
	walkPoolBlock(pass, body.List, st, false)
}

// poolGets returns the objects assigned from (*sync.Pool).Get calls
// (possibly through a type assertion) anywhere in the body.
func poolGets(pass *Pass, body *ast.BlockStmt) []types.Object {
	var out []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			e := ast.Unparen(rhs)
			if ta, ok := e.(*ast.TypeAssertExpr); ok {
				e = ast.Unparen(ta.X)
			}
			call, ok := e.(*ast.CallExpr)
			if !ok || !isPoolMethod(pass, call, "Get") {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				out = append(out, obj)
			} else if obj := pass.Info.Uses[id]; obj != nil {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
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

// walkPoolBlock processes stmts in order, mutating st. inLoop marks
// bodies that may re-execute (a Put there can double-fire).
func walkPoolBlock(pass *Pass, stmts []ast.Stmt, st map[types.Object]*poolVar, inLoop bool) {
	for _, s := range stmts {
		walkPoolStmt(pass, s, st, inLoop)
	}
}

func copyPoolState(st map[types.Object]*poolVar) map[types.Object]*poolVar {
	c := make(map[types.Object]*poolVar, len(st))
	for k, v := range st {
		cv := *v
		c[k] = &cv
	}
	return c
}

// mergePoolState ORs released-ness from a fall-through branch into st:
// if a value may have been released on the branch, later uses on the
// joined path are (possibly) invalid and are reported as such.
func mergePoolState(st, branch map[types.Object]*poolVar) {
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

func walkPoolStmt(pass *Pass, s ast.Stmt, st map[types.Object]*poolVar, inLoop bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		walkPoolBlock(pass, s.List, st, inLoop)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st, inLoop)
		}
		checkPoolExpr(pass, s.Cond, st, inLoop)
		thenSt := copyPoolState(st)
		markErrReclaim(pass, s.Cond, thenSt)
		walkPoolBlock(pass, s.Body.List, thenSt, inLoop)
		if s.Else != nil {
			elseSt := copyPoolState(st)
			walkPoolStmt(pass, s.Else, elseSt, inLoop)
			if !terminates(s.Body.List) {
				mergePoolState(st, thenSt)
			}
			if eb, ok := s.Else.(*ast.BlockStmt); !ok || !terminates(eb.List) {
				mergePoolState(st, elseSt)
			}
		} else if !terminates(s.Body.List) {
			mergePoolState(st, thenSt)
		}
		return
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st, inLoop)
		}
		if s.Tag != nil {
			checkPoolExpr(pass, s.Tag, st, inLoop)
		}
		// A case conditioned on the transferring call's error result
		// reclaims ownership: the callee rejected the handoff and will
		// never fire the release, so a Put there is the caller's right
		// and duty (the engine IngestGroups contract). When any case of
		// a tagless switch dispatches on an error, every clause —
		// including default, which is just the residual error branch —
		// gets the reclaim.
		errSwitch := false
		if s.Tag == nil {
			for _, c := range s.Body.List {
				for _, cond := range c.(*ast.CaseClause).List {
					if condMentionsError(pass, cond) {
						errSwitch = true
					}
				}
			}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseSt := copyPoolState(st)
			if errSwitch {
				reclaimTransfers(caseSt)
			} else {
				for _, cond := range cc.List {
					markErrReclaim(pass, cond, caseSt)
				}
			}
			walkPoolBlock(pass, cc.Body, caseSt, inLoop)
			if !terminates(cc.Body) {
				mergePoolState(st, caseSt)
			}
		}
		return
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st, inLoop)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseSt := copyPoolState(st)
			walkPoolBlock(pass, cc.Body, caseSt, inLoop)
			if !terminates(cc.Body) {
				mergePoolState(st, caseSt)
			}
		}
		return
	case *ast.ForStmt:
		if s.Init != nil {
			walkPoolStmt(pass, s.Init, st, inLoop)
		}
		if s.Cond != nil {
			checkPoolExpr(pass, s.Cond, st, inLoop)
		}
		loopSt := copyPoolState(st)
		walkPoolBlock(pass, s.Body.List, loopSt, true)
		mergePoolState(st, loopSt)
		return
	case *ast.RangeStmt:
		checkPoolExpr(pass, s.X, st, inLoop)
		loopSt := copyPoolState(st)
		walkPoolBlock(pass, s.Body.List, loopSt, true)
		mergePoolState(st, loopSt)
		return
	case *ast.AssignStmt:
		// A fresh Get re-establishes ownership (common in loops).
		for i, rhs := range s.Rhs {
			e := ast.Unparen(rhs)
			if ta, ok := e.(*ast.TypeAssertExpr); ok {
				e = ast.Unparen(ta.X)
			}
			if call, ok := e.(*ast.CallExpr); ok && isPoolMethod(pass, call, "Get") && i < len(s.Lhs) {
				if id, ok := s.Lhs[i].(*ast.Ident); ok {
					if obj := pass.Info.Defs[id]; obj != nil && st[obj] != nil {
						st[obj] = &poolVar{obj: obj}
						continue
					}
					if obj := pass.Info.Uses[id]; obj != nil && st[obj] != nil {
						st[obj] = &poolVar{obj: obj}
						continue
					}
				}
			}
			// err := ingest(v.buf, func() { pool.Put(v) }) — the
			// release-callback transfer usually happens in an
			// assignment capturing the call's error.
			if call, ok := e.(*ast.CallExpr); ok && handlePoolCall(pass, call, st, inLoop) {
				continue
			}
			checkPoolExpr(pass, rhs, st, inLoop)
		}
		// Storing an owned value into a field, map slot, or package
		// variable escapes single-owner tracking.
		for _, lhs := range s.Lhs {
			for obj, v := range st {
				if v.released != token.NoPos {
					continue
				}
				for i, rhs := range s.Rhs {
					if len(s.Lhs) == len(s.Rhs) && s.Lhs[i] != lhs {
						continue
					}
					if !exprIsObj(pass, rhs, obj) {
						continue
					}
					if escapingLHS(pass, lhs) {
						pass.Reportf(s.Pos(), "pool value %s is stored outside the function (ownership escapes); hand it off explicitly or annotate the transfer", obj.Name())
					}
				}
			}
		}
		return
	case *ast.GoStmt:
		checkPoolGoDefer(pass, s.Call, st, "goroutine")
		return
	case *ast.DeferStmt:
		// defer pool.Put(v) is a release at function exit: treat it as
		// releasing immediately for double-Put purposes (a second Put
		// later in the body will double-fire), but do not flag ordinary
		// later uses — they happen before the deferred call runs.
		if isPoolMethod(pass, s.Call, "Put") && len(s.Call.Args) == 1 {
			if obj := exprObj(pass, s.Call.Args[0]); obj != nil {
				if v := st[obj]; v != nil {
					if v.released != token.NoPos {
						pass.Reportf(s.Pos(), "pool value %s is Put again (%s at %s): double-Put lets two goroutines share one buffer", obj.Name(), v.how, pass.Fset.Position(v.released))
					} else {
						// Deferred release runs last: later reads are fine,
						// but a second Put still double-fires.
						v.released = s.Pos()
						v.how = "deferred Put"
						v.errObj = deferSentinel
					}
				}
			}
			return
		}
		checkPoolGoDefer(pass, s.Call, st, "deferred call")
		return
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if handlePoolCall(pass, call, st, inLoop) {
				return
			}
		}
		checkPoolExpr(pass, s.X, st, inLoop)
		return
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkPoolExpr(pass, r, st, inLoop)
		}
		return
	case *ast.DeclStmt, *ast.EmptyStmt, *ast.BranchStmt:
		return
	case *ast.IncDecStmt:
		checkPoolExpr(pass, s.X, st, inLoop)
		return
	case *ast.SendStmt:
		// Sending an owned value on a channel hands it to an unknown
		// receiver: an escape.
		for obj, v := range st {
			if v.released == token.NoPos && exprIsObj(pass, s.Value, obj) {
				pass.Reportf(s.Pos(), "pool value %s is sent on a channel (ownership escapes); the receiver must own the Put — annotate the transfer if intended", obj.Name())
			}
		}
		checkPoolExpr(pass, s.Chan, st, inLoop)
		return
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseSt := copyPoolState(st)
			if cc.Comm != nil {
				walkPoolStmt(pass, cc.Comm, caseSt, inLoop)
			}
			walkPoolBlock(pass, cc.Body, caseSt, inLoop)
			if !terminates(cc.Body) {
				mergePoolState(st, caseSt)
			}
		}
		return
	case *ast.LabeledStmt:
		walkPoolStmt(pass, s.Stmt, st, inLoop)
		return
	}
	// Anything unhandled: conservatively scan for uses after release.
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			checkPoolExpr(pass, e, st, inLoop)
			return false
		}
		return true
	})
}

// deferSentinel distinguishes a deferred release (plain later uses OK)
// from an inline one. It is never a real types.Object from the checked
// package.
var deferSentinel = types.NewParam(token.NoPos, nil, "deferred", types.Typ[types.Invalid])

// handlePoolCall processes a call statement: Put releases, a call
// receiving a release closure transfers. Returns true if the statement
// was fully handled.
func handlePoolCall(pass *Pass, call *ast.CallExpr, st map[types.Object]*poolVar, inLoop bool) bool {
	if isPoolMethod(pass, call, "Put") && len(call.Args) == 1 {
		obj := exprObj(pass, call.Args[0])
		if obj == nil {
			return false
		}
		v := st[obj]
		if v == nil {
			return false
		}
		if v.released != token.NoPos {
			pass.Reportf(call.Pos(), "pool value %s is Put again (%s at %s): double-Put lets two goroutines share one buffer", obj.Name(), v.how, pass.Fset.Position(v.released))
		} else {
			v.released = call.Pos()
			v.how = "Put"
		}
		return true
	}
	// A call whose argument is a closure that Puts an owned value is an
	// ownership transfer (the release-callback idiom): the value must
	// not be used after this statement, except for error-path reclaim.
	transferred := false
	for _, arg := range call.Args {
		fl, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		for obj, v := range st {
			if v.released != token.NoPos {
				continue
			}
			if closurePuts(pass, fl, obj) {
				v.released = call.Pos()
				v.how = "ownership transfer via release callback"
				transferred = true
			}
		}
	}
	if transferred {
		return true
	}
	return false
}

// closurePuts reports whether the function literal contains pool.Put(obj).
func closurePuts(pass *Pass, fl *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPoolMethod(pass, call, "Put") || len(call.Args) != 1 {
			return true
		}
		if exprIsObj(pass, call.Args[0], obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkPoolGoDefer flags owned pool values captured by a go/defer call.
func checkPoolGoDefer(pass *Pass, call *ast.CallExpr, st map[types.Object]*poolVar, what string) {
	for obj, v := range st {
		if v.released != token.NoPos {
			continue
		}
		uses := false
		ast.Inspect(call, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				uses = true
				return false
			}
			return true
		})
		if uses {
			pass.Reportf(call.Pos(), "pool value %s escapes into a %s while still owned; Put it first or annotate the ownership transfer", obj.Name(), what)
		}
	}
}

// markErrReclaim enables the error-path-reclaim exception: inside a
// case (or if) conditioned on an error value, a Put of a transferred
// value is legal. The analysis is deliberately permissive here: any
// released value whose release was a transfer is un-released inside
// such branches.
func markErrReclaim(pass *Pass, cond ast.Expr, st map[types.Object]*poolVar) {
	if condMentionsError(pass, cond) {
		reclaimTransfers(st)
	}
}

// condMentionsError reports whether cond references an error-typed
// identifier (err != nil, errors.Is(err, ...), ...).
func condMentionsError(pass *Pass, cond ast.Expr) bool {
	mentions := false
	ast.Inspect(cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || obj.Type() == nil {
			return true
		}
		if types.Implements(obj.Type(), errorInterface) {
			mentions = true
			return false
		}
		return true
	})
	return mentions
}

// reclaimTransfers un-releases every value whose release was an
// ownership transfer, for the duration of an error-conditioned branch.
func reclaimTransfers(st map[types.Object]*poolVar) {
	for _, v := range st {
		if v.released != token.NoPos && v.how == "ownership transfer via release callback" {
			v.released = token.NoPos
			v.how = ""
		}
	}
}

// errorInterface is the built-in error interface type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// checkPoolExpr reports uses of released pool values within e.
func checkPoolExpr(pass *Pass, e ast.Expr, st map[types.Object]*poolVar, inLoop bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run later; handled at their call
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		v := st[obj]
		if v == nil || v.released == token.NoPos || v.errObj == deferSentinel {
			return true
		}
		pass.Reportf(id.Pos(), "pool value %s used after %s (at %s): the pool may already have handed it to another goroutine", obj.Name(), v.how, pass.Fset.Position(v.released))
		return true
	})
}

// exprObj resolves a bare identifier expression to its object.
func exprObj(pass *Pass, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return pass.Info.Uses[id]
	}
	return nil
}

// exprIsObj reports whether e is exactly the identifier for obj.
func exprIsObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	return exprObj(pass, e) == obj
}

// escapingLHS reports whether assigning to lhs stores the value outside
// the current function's scope: a field selector, index expression,
// dereference, or package-level variable.
func escapingLHS(pass *Pass, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		if obj := pass.Info.Uses[l]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				return true
			}
		}
	}
	return false
}
