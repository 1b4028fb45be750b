package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocLen generalizes the validate-before-alloc discipline every
// decoder in this repository follows (docs/FORMATS.md): a length or
// count decoded from wire, checkpoint, or snapshot input is
// attacker-controlled, and passing it to make() before bounding it
// lets a 20-byte frame demand gigabytes — the classic decompression-
// bomb allocation. The SKSP reader checks its declared payload length
// against MaxFramePayload before allocating; binfmt.Reader bounds
// every declared length and count by the bytes that remain. This
// analyzer makes that discipline mechanical for every decoder that
// clustering and tiered retention will add.
//
// Within each function it taints values produced by binary decode
// primitives — encoding/binary's Uint16/32/64, Uvarint/Varint and
// ReadUvarint/ReadVarint, and the integer reads of this repo's
// bounds-checked readers (binfmt.Reader's U8/U16/U32/U64/I64/Uvarint/
// Varint, and any lowercase u8…varint cursor) — propagates the taint
// through assignments, conversions and arithmetic, and flags any
// make([]T, n) or make(map[K]V, n) whose size argument is tainted,
// unless the tainted value was first compared (in an if/switch
// condition, or against len() of the input) — the dominating bound
// check. Comparing against a named constant is the canonical form;
// any validating comparison clears the taint.
var AllocLen = &Analyzer{
	Name: "alloclen",
	Doc:  "flags make() sizes decoded from input without a dominating bound check",
	Run:  runAllocLen,
}

func runAllocLen(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAllocFunc(pass, fd.Body)
		}
	}
}

// taintState maps variables to the decode call that tainted them.
type taintState map[types.Object]token.Pos

func checkAllocFunc(pass *Pass, body *ast.BlockStmt) {
	taint := make(taintState)
	walkAllocBlock(pass, body.List, taint)
}

func walkAllocBlock(pass *Pass, stmts []ast.Stmt, taint taintState) {
	for _, s := range stmts {
		walkAllocStmt(pass, s, taint)
	}
}

func copyTaint(t taintState) taintState {
	c := make(taintState, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

func walkAllocStmt(pass *Pass, s ast.Stmt, taint taintState) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		walkAllocBlock(pass, s.List, taint)
	case *ast.AssignStmt:
		// RHS first: report tainted makes, compute taint of each value.
		for _, rhs := range s.Rhs {
			checkAllocExpr(pass, rhs, taint)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if pos, tainted := exprTaint(pass, s.Rhs[i], taint); tainted {
					taint[obj] = pos
				} else {
					delete(taint, obj)
				}
			}
		} else if len(s.Rhs) == 1 {
			// Multi-value: v, err := c.uvarint() — taint every LHS if the
			// call is a decode source.
			if pos, tainted := exprTaint(pass, s.Rhs[0], taint); tainted {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						obj := pass.Info.Defs[id]
						if obj == nil {
							obj = pass.Info.Uses[id]
						}
						if obj != nil && !isErrorObj(obj) {
							taint[obj] = pos
						}
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			walkAllocStmt(pass, s.Init, taint)
		}
		// A comparison mentioning a tainted variable is its bound check:
		// the programmer validated it against SOMETHING; the fixture and
		// docs demand a named constant, and review enforces the rest.
		clearCheckedTaint(pass, s.Cond, taint)
		thenT := copyTaint(taint)
		walkAllocBlock(pass, s.Body.List, thenT)
		if s.Else != nil {
			elseT := copyTaint(taint)
			walkAllocStmt(pass, s.Else, elseT)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkAllocStmt(pass, s.Init, taint)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseT := copyTaint(taint)
			for _, cond := range cc.List {
				clearCheckedTaint(pass, cond, caseT)
			}
			walkAllocBlock(pass, cc.Body, caseT)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkAllocStmt(pass, s.Init, taint)
		}
		if s.Cond != nil {
			clearCheckedTaint(pass, s.Cond, taint)
		}
		walkAllocBlock(pass, s.Body.List, taint)
	case *ast.RangeStmt:
		walkAllocBlock(pass, s.Body.List, taint)
	case *ast.ExprStmt:
		checkAllocExpr(pass, s.X, taint)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkAllocExpr(pass, r, taint)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						checkAllocExpr(pass, vs.Values[i], taint)
						if pos, tainted := exprTaint(pass, vs.Values[i], taint); tainted {
							if obj := pass.Info.Defs[name]; obj != nil {
								taint[obj] = pos
							}
						}
					}
				}
			}
		}
	case *ast.GoStmt:
		checkAllocExpr(pass, s.Call, taint)
	case *ast.DeferStmt:
		checkAllocExpr(pass, s.Call, taint)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseT := copyTaint(taint)
			if cc.Comm != nil {
				walkAllocStmt(pass, cc.Comm, caseT)
			}
			walkAllocBlock(pass, cc.Body, caseT)
		}
	case *ast.LabeledStmt:
		walkAllocStmt(pass, s.Stmt, taint)
	case *ast.SendStmt:
		checkAllocExpr(pass, s.Value, taint)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				checkAllocExpr(pass, e, taint)
				return false
			}
			return true
		})
	}
}

// clearCheckedTaint untaints every variable that appears in a
// comparison within cond: the condition is the bound check.
func clearCheckedTaint(pass *Pass, cond ast.Expr, taint taintState) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.GTR, token.GEQ, token.LSS, token.LEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						delete(taint, obj)
					}
				}
				return true
			})
		}
		return true
	})
}

// checkAllocExpr reports make() calls whose size arguments are tainted,
// recursing through the expression (including function literals, whose
// bodies share the enclosing taint — a decode closure is still a
// decoder).
func checkAllocExpr(pass *Pass, e ast.Expr, taint taintState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		// make(T, n[, cap]): args[1:] are sizes.
		for _, arg := range call.Args[1:] {
			if pos, tainted := exprTaint(pass, arg, taint); tainted {
				pass.Reportf(call.Pos(), "make() size flows from decoded input (decoded at %s) with no dominating bound check; compare it against a named constant (or the remaining input length) before allocating", pass.Fset.Position(pos))
			}
		}
		return true
	})
}

// exprTaint reports whether e's value derives from a decode source:
// either a direct decode call or arithmetic over tainted variables.
func exprTaint(pass *Pass, e ast.Expr, taint taintState) (token.Pos, bool) {
	var pos token.Pos
	tainted := false
	ast.Inspect(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil {
				if p, ok := taint[obj]; ok {
					pos, tainted = p, true
					return false
				}
			}
		case *ast.CallExpr:
			if p, ok := decodeSource(pass, n); ok {
				pos, tainted = p, true
				return false
			}
		}
		return true
	})
	return pos, tainted
}

// isErrorObj reports whether obj has type error.
func isErrorObj(obj types.Object) bool {
	return types.Identical(obj.Type(), types.Universe.Lookup("error").Type())
}

// decodeSource reports whether call produces a value decoded from
// input: an encoding/binary read, or a method named like the integer
// reads of this repo's bounds-checked readers.
func decodeSource(pass *Pass, call *ast.CallExpr) (token.Pos, bool) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return token.NoPos, false
	}
	if f.Pkg().Path() == "encoding/binary" {
		switch f.Name() {
		case "Uint16", "Uint32", "Uint64", "Uvarint", "Varint",
			"ReadUvarint", "ReadVarint", "Read":
			return call.Pos(), true
		}
		return token.NoPos, false
	}
	// Reader idiom: bounds-checked methods named after the wire type
	// they decode, exported on binfmt.Reader.
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return token.NoPos, false
	}
	switch f.Name() {
	case "u8", "u16", "u32", "u64", "uvarint", "varint",
		"U8", "U16", "U32", "U64", "I64", "Uvarint", "Varint":
		return call.Pos(), true
	}
	return token.NoPos, false
}
