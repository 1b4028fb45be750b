package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrCtr enforces the error contracts the retry/backpressure machinery
// is built on. The 429 story — atomic admission, Retry-After floors,
// exactly-once replay — only composes if every layer honors three
// conventions:
//
//  1. sentinel errors travel wrapped: ErrQuotaExceeded crosses three
//     packages inside fmt.Errorf("...: %w", ...) chains, so comparing
//     with == instead of errors.Is silently stops matching the moment
//     anyone adds context. Any ==/!= against a declared Err* variable
//     is flagged (err == nil and io.EOF stay idiomatic).
//  2. the binary 429 carries its hint: a wire.Reject composite literal
//     without a RetryAfter field drops it, and the client resends on
//     its own backoff.
//  3. error context wraps: fmt.Errorf whose final verb formats an
//     error with %v or %s severs the chain errors.Is/As walks; use %w.
var ErrCtr = &Analyzer{
	Name: "errctr",
	Doc:  "flags == on Err* sentinels, Reject literals without RetryAfter, and fmt.Errorf %v on errors",
	Run:  runErrCtr,
}

func runErrCtr(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			case *ast.CompositeLit:
				checkRejectLiteral(pass, n)
			}
			return true
		})
	}
}

// checkSentinelCompare flags err == ErrSomething / err != ErrSomething.
func checkSentinelCompare(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		sentinel, other := pair[0], pair[1]
		name, obj := sentinelErr(pass, sentinel)
		if obj == nil {
			continue
		}
		// The other side must be an error too (don't flag comparisons of
		// unrelated values that happen to sit next to a sentinel name).
		tv, ok := pass.Info.Types[other]
		if !ok || tv.Type == nil || !types.Implements(tv.Type, errorInterface) {
			continue
		}
		pass.Reportf(be.Pos(), "sentinel error %s compared with %s; wrapped errors never match — use errors.Is(err, %s)", name, be.Op, name)
		return
	}
}

// sentinelErr reports whether e denotes a declared error variable whose
// name begins with "Err" (the sentinel convention).
func sentinelErr(pass *Pass, e ast.Expr) (string, types.Object) {
	var id *ast.Ident
	display := ""
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id, display = x, x.Name
	case *ast.SelectorExpr:
		id = x.Sel
		if pkg, ok := x.X.(*ast.Ident); ok {
			display = pkg.Name + "." + x.Sel.Name
		} else {
			display = x.Sel.Name
		}
	default:
		return "", nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return "", nil
	}
	v, ok := obj.(*types.Var)
	if !ok || !strings.HasPrefix(obj.Name(), "Err") || len(obj.Name()) < 4 {
		return "", nil
	}
	if !types.Implements(v.Type(), errorInterface) {
		return "", nil
	}
	// Only package-level sentinels count; a local err variable named
	// ErrX would be bizarre, but fields are excluded deliberately.
	if v.Parent() == nil {
		return "", nil
	}
	return display, obj
}

// checkRejectLiteral flags wire.Reject{...} composite literals that
// leave RetryAfter zero: the binary protocol's 429 must carry its hint
// just like the HTTP one.
func checkRejectLiteral(pass *Pass, cl *ast.CompositeLit) {
	tv, ok := pass.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Name() != "Reject" {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	hasField := false
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "RetryAfter" {
			hasField = true
		}
	}
	if !hasField {
		return
	}
	for _, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "RetryAfter" {
				// Present — even an explicit 0 is a decision, not an
				// omission; the zero check below only catches absence.
				return
			}
		} else {
			// Positional literal: every field is set.
			return
		}
	}
	pass.Reportf(cl.Pos(), "Reject literal without a RetryAfter hint; the binary 429 must tell the client when to resend")
}

// checkErrorfWrap flags fmt.Errorf calls that format an error argument
// with a non-wrapping verb in final position — the "...: %v" idiom that
// should be "...: %w".
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "fmt" || f.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format := strings.Trim(lit.Value, "`\"")
	verbs := formatVerbs(format)
	if len(verbs) != len(call.Args)-1 {
		return // indexed or starred verbs; don't guess
	}
	last := len(verbs) - 1
	if verbs[last] != 'v' && verbs[last] != 's' {
		return
	}
	argTV, ok := pass.Info.Types[call.Args[last+1]]
	if !ok || argTV.Type == nil || !types.Implements(argTV.Type, errorInterface) {
		return
	}
	pass.Reportf(call.Pos(), "fmt.Errorf formats the error with %%%c, severing the chain errors.Is/As walks; wrap it with %%w", verbs[last])
}

// formatVerbs extracts the verb letters of a format string, in order,
// skipping %%.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Flags, width, precision.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		if format[i] == '[' || format[i] == '*' {
			return nil // indexed/starred args: bail out
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}

// errorInterface is the built-in error interface type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
