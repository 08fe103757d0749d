package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/lint"
)

// FloatEq flags == and != between floating-point values in test files.
// Exact float comparison in a test encodes an accident of rounding as a
// contract; tests should assert tolerances through an approx helper. Two
// escapes exist by design: helpers whose own name marks them as approx
// machinery (approxEqual, withinDelta, …) may compare floats to implement
// themselves, and genuinely bit-exact assertions (golden determinism
// tests) take //simlint:allow floateq with a reason.
var FloatEq = &lint.Analyzer{
	Name: "floateq",
	Doc: "flags ==/!= on floats in _test.go files outside approx helpers; " +
		"assert with a tolerance helper or annotate bit-exact intent",
	Run: runFloatEq,
}

// approxHelper matches function names that are allowed to compare floats
// exactly because they implement the tolerance machinery.
var approxHelper = regexp.MustCompile(`(?i)(approx|almost|close|within|delta|near|tol)`)

func runFloatEq(pass *lint.Pass) {
	for _, u := range pass.Units {
		for _, f := range u.Files {
			name := pass.Fset.Position(f.Pos()).Filename
			if !strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || approxHelper.MatchString(fd.Name.Name) {
					continue
				}
				checkFloatComparisons(pass, u.Info, fd.Body)
			}
		}
	}
}

func checkFloatComparisons(pass *lint.Pass, info *types.Info, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested closures named nowhere can't be approx helpers; inspect
		// everything below the declaration uniformly.
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xt, xok := info.Types[be.X]
		yt, yok := info.Types[be.Y]
		if !xok || !yok || (!isFloat(xt.Type) && !isFloat(yt.Type)) {
			return true
		}
		// Both sides constant: compile-time fact, not a flaky assertion.
		if xt.Value != nil && yt.Value != nil {
			return true
		}
		// x != x is the portable NaN test; leave it alone.
		if be.Op == token.NEQ && sameIdent(be.X, be.Y) {
			return true
		}
		pass.Reportf(be.Pos(), "floateq",
			"exact float comparison (%s) in test; use an approx/delta helper, or //simlint:allow floateq for intentionally bit-exact checks", be.Op)
		return true
	})
}

// sameIdent reports whether both expressions are the same plain identifier.
func sameIdent(x, y ast.Expr) bool {
	xi, ok1 := ast.Unparen(x).(*ast.Ident)
	yi, ok2 := ast.Unparen(y).(*ast.Ident)
	return ok1 && ok2 && xi.Name == yi.Name
}
