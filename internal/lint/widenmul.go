package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WidenMul flags integer products that are widened only after the
// multiply: uint64(a*b) where a and b are fixed-width integers narrower
// than 64 bits. Decoders read table dimensions as uint32 (agms's SKAG
// s1 and s2), and their product wraps at 2^32 before the conversion
// launders it: a blob declaring s1 = 2, s2 = 2^31 would read zero
// counters and pass its length check. The fix is to widen the operands
// first: uint64(a)*uint64(b).
//
// Constant-folded products and products computed in int, uint or a
// 64-bit type are not flagged: on 64-bit targets, where CI builds and
// tests, an int product wraps exactly as a 64-bit one does.
var WidenMul = &Analyzer{
	Name: "widenmul",
	Doc:  "flags products of sub-64-bit integers widened to a 64-bit type only after the multiply",
	Run:  runWidenMul,
}

func runWidenMul(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion expression: the "callee" must be a type
			// name denoting a 64-bit numeric type.
			tv, ok := pass.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst, ok := tv.Type.Underlying().(*types.Basic)
			if !ok {
				return true
			}
			switch dst.Kind() {
			case types.Int64, types.Uint64, types.Float64:
			default:
				return true
			}
			mul, ok := ast.Unparen(call.Args[0]).(*ast.BinaryExpr)
			if !ok || mul.Op != token.MUL {
				return true
			}
			opTV, ok := pass.Info.Types[mul]
			if !ok {
				return true
			}
			if opTV.Value != nil {
				return true // constant-folded, checked by the compiler
			}
			src, ok := opTV.Type.Underlying().(*types.Basic)
			if !ok || src.Info()&types.IsInteger == 0 {
				return true
			}
			if !narrowerThan64(src.Kind()) {
				return true
			}
			pass.Reportf(call.Pos(), "product is computed in %s and only then widened to %s; convert the operands first (%s(a)*%s(b)) so the multiply cannot overflow", src.Name(), dst.Name(), dst.Name(), dst.Name())
			return true
		})
	}
}

// narrowerThan64 reports whether the integer kind is a fixed-width
// type that can overflow a product that would fit in 64 bits.
func narrowerThan64(k types.BasicKind) bool {
	switch k {
	case types.Int8, types.Int16, types.Int32, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}
