package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// CtxLeak enforces the goroutine-liveness discipline the server's
// lifecycle depends on: sketchd drains its listeners, checkpointer and
// watch ticker on SIGTERM, and a wire session's dial must not outlive
// its timeout. A goroutine spawned per loop iteration (per
// accepted connection, per reconnect attempt, per retry) that nobody
// can stop or join outlives the shutdown drain — the "hung node"
// failure mode the ROADMAP's cluster work explicitly guards against.
//
// Flagged:
//
//  1. a `go` statement inside a for/range loop whose function shows no
//     termination evidence: no select on a context.Context.Done() or a
//     done/stop/quit/close channel, no sync.WaitGroup registration
//     (the join path), transitively through one level of same-package
//     calls;
//  2. time.Tick — its ticker can never be stopped;
//  3. time.NewTicker in a function that never calls Stop (directly or
//     deferred) and does not return the ticker;
//  4. net.Dial — a dial without a deadline can hang forever on an
//     unresponsive peer; use net.DialTimeout or a net.Dialer with
//     Timeout/DialContext.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "flags unstoppable goroutines spawned in loops, unstopped tickers, and deadline-less dials",
	Run:  runCtxLeak,
}

func runCtxLeak(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFunc(pass, fd.Body)
		}
	}
}

func checkCtxFunc(pass *Pass, body *ast.BlockStmt) {
	checkTickers(pass, body)
	// Find go statements lexically inside loops.
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case *ast.ForStmt:
			walkChildren(n.Body, func(c ast.Node) { walk(c, true) })
			return
		case *ast.RangeStmt:
			walkChildren(n.Body, func(c ast.Node) { walk(c, true) })
			return
		case *ast.GoStmt:
			if inLoop && !stoppable(pass, n, 2) {
				pass.Reportf(n.Pos(), "goroutine started inside a loop with no context/done-channel select or WaitGroup registration; it cannot be stopped or joined on shutdown")
			}
			// Recurse into the spawned function for nested loops.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				walkChildren(fl.Body, func(c ast.Node) { walk(c, false) })
			}
			return
		case *ast.FuncLit:
			walkChildren(n.Body, func(c ast.Node) { walk(c, false) })
			return
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		if n != nil {
			walkChildren(n, func(c ast.Node) { walk(c, inLoop) })
		}
	}
	walkChildren(body, func(c ast.Node) { walk(c, false) })
}

// walkChildren invokes f on each direct child node of n.
func walkChildren(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

// checkCall flags the always-wrong calls: time.Tick and net.Dial.
func checkCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Tick" {
			pass.Reportf(call.Pos(), "time.Tick leaks its ticker; use time.NewTicker with a deferred Stop")
		}
	case "net":
		if f.Name() == "Dial" {
			pass.Reportf(call.Pos(), "net.Dial has no deadline and can hang forever; use net.DialTimeout or a net.Dialer with Timeout/DialContext")
		}
	}
}

// checkTickers flags time.NewTicker calls in functions that never call
// Stop and do not pass the ticker onward (return it or hand it to
// another function).
func checkTickers(pass *Pass, body *ast.BlockStmt) {
	var tickers []*ast.CallExpr
	hasStop := false
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if f := calleeFunc(pass.Info, n); f != nil && f.Pkg() != nil {
				if f.Pkg().Path() == "time" && f.Name() == "NewTicker" {
					tickers = append(tickers, n)
				}
				if f.Name() == "Stop" {
					hasStop = true
				}
			}
		case *ast.ReturnStmt:
			// Returning the ticker (or a struct holding it) hands the
			// Stop obligation to the caller; be permissive.
			for _, r := range n.Results {
				if tickerTyped(pass, r) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && tickerTyped(pass, sel) {
					escapes = true
				}
			}
		}
		return true
	})
	if len(tickers) == 0 || hasStop || escapes {
		return
	}
	for _, t := range tickers {
		pass.Reportf(t.Pos(), "time.NewTicker without a Stop in the same function leaks the ticker goroutine; defer t.Stop()")
	}
}

// tickerType matches type strings mentioning time.Ticker.
var tickerType = regexp.MustCompile(`\btime\.Ticker\b`)

// tickerTyped reports whether e's type mentions time.Ticker.
func tickerTyped(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return tickerType.MatchString(tv.Type.String())
}

// doneChanName matches channel identifiers that conventionally signal
// shutdown.
var doneChanName = regexp.MustCompile(`(?i)(done|stop|quit|clos|exit|shut)`)

// stoppable reports whether the goroutine spawned by g shows evidence
// that it can be stopped (select on ctx.Done()/a done channel) or
// joined (sync.WaitGroup use), searching the spawned function and, up
// to depth, same-package functions it calls.
func stoppable(pass *Pass, g *ast.GoStmt, depth int) bool {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodyStoppable(pass, fun.Body, depth)
	default:
		if f := calleeFunc(pass.Info, g.Call); f != nil {
			if body := funcBody(pass, f); body != nil {
				return bodyStoppable(pass, body, depth)
			}
			// A function from another package: assume the author knew
			// what they were doing only for the stdlib; flag otherwise?
			// Be permissive for out-of-package targets we cannot see.
			return f.Pkg() != pass.Pkg
		}
	}
	return false
}

// funcBody finds the body of a same-package function or method.
func funcBody(pass *Pass, f *types.Func) *ast.BlockStmt {
	if f.Pkg() != pass.Pkg {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Info.Defs[fd.Name] == f {
				return fd.Body
			}
		}
	}
	return nil
}

func bodyStoppable(pass *Pass, body *ast.BlockStmt, depth int) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// <-ch where ch signals shutdown, inside or outside a select.
			if n.Op.String() == "<-" && shutdownChan(pass, n.X) {
				ok = true
				return false
			}
		case *ast.CallExpr:
			f := calleeFunc(pass.Info, n)
			if f == nil {
				return true
			}
			// sync.WaitGroup registration: the spawner can join it.
			if recvNamed(f, "sync", "WaitGroup") && (f.Name() == "Done" || f.Name() == "Add") {
				ok = true
				return false
			}
			// Follow one level of same-package calls.
			if depth > 0 && f.Pkg() == pass.Pkg {
				if b := funcBody(pass, f); b != nil && bodyStoppable(pass, b, depth-1) {
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}

// shutdownChan reports whether e is a ctx.Done() call or a channel
// whose name marks it a shutdown signal.
func shutdownChan(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if f := calleeFunc(pass.Info, call); f != nil && f.Name() == "Done" && recvNamed(f, "context", "Context") {
			return true
		}
		return false
	}
	name := ""
	switch x := e.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	if name == "" {
		return false
	}
	if tv, ok := pass.Info.Types[e]; ok {
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return false
		}
	}
	return doneChanName.MatchString(name)
}

// recvNamed reports whether f's receiver (or interface owner) is the
// named type pkg.Name.
func recvNamed(f *types.Func, pkgPath, name string) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
