// Package checks holds the simlint analyzers: the determinism,
// unit-safety and kernel-contract rules the simulator's results depend
// on. Each analyzer is a lint.Analyzer that cmd/simlint (verify tier 3)
// runs once over the whole load set; all of them support suppression via
// `//simlint:allow <name>` on or directly above the flagged line.
package checks

import (
	"go/ast"
	"go/types"
)

// calleeObj resolves the object a call expression invokes, or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// pkgPathOf returns the defining package path of an object, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isMethod reports whether obj is a method (has a receiver).
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isFloat reports whether t is (or is based on) a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
