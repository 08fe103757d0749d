package checks

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

// UnitConv flags raw numeric-literal multiplies/divides that smell like
// unit conversions — ×1000, ÷1e9, ×1024 and friends — outside the typed
// internal/units layer. PR 1's `buskbps` bug (MB/s values labelled kb/s)
// is exactly this class of mistake: a bare scale factor with the unit
// arithmetic living only in a comment, if anywhere. The rule: name the
// conversion (internal/units type or constant) or annotate why not.
var UnitConv = &lint.Analyzer{
	Name: "unitconv",
	Doc: "flags raw scale-factor literals (*1000, /1e9, *1024, …) converting " +
		"between size/bandwidth/time units; route conversions through " +
		"internal/units or a named constant",
	Run: runUnitConv,
}

// scaleFactors are the literal values that convert between the unit
// systems this codebase juggles: decimal SI steps (kilo…pico) and the
// binary capacity steps. Plain counts like *2, *100 or /8 pass.
var scaleFactors = map[float64]string{
	1e3:                "1e3",
	1e6:                "1e6",
	1e9:                "1e9",
	1e12:               "1e12",
	1e-3:               "1e-3",
	1e-6:               "1e-6",
	1e-9:               "1e-9",
	1e-12:              "1e-12",
	1024:               "1024",
	1024 * 1024:        "1024²",
	1024 * 1024 * 1024: "1024³",
}

func runUnitConv(pass *lint.Pass) {
	for _, u := range pass.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.MUL && be.Op != token.QUO) {
					return true
				}
				// A fully constant expression is a definition (e.g. a
				// sized buffer, a named constant being built), not a
				// conversion of a runtime measurement.
				if tv, ok := u.Info.Types[be]; ok && tv.Value != nil {
					return true
				}
				for _, operand := range []ast.Expr{be.X, be.Y} {
					if name, ok := scaleLiteral(u.Info, operand); ok {
						pass.Reportf(operand.Pos(), "unitconv",
							"raw unit-conversion literal %s in %s expression; use internal/units (typed Bytes/MBps/GBps or a named constant)",
							name, be.Op)
					}
				}
				return true
			})
		}
	}
}

// scaleLiteral reports whether e is written as a literal (possibly a
// parenthesised literal or a shift/product of literals, like 1<<20) whose
// constant value is one of the suspicious scale factors.
func scaleLiteral(info *types.Info, e ast.Expr) (string, bool) {
	if !literalSyntax(e) {
		return "", false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	val, ok := constant.Val(constant.ToFloat(tv.Value)).(float64)
	if !ok {
		// Exact rationals (big values) come back as *big.Rat/*big.Float;
		// approximate via Float64Val.
		val, _ = constant.Float64Val(constant.ToFloat(tv.Value))
	}
	name, found := scaleFactors[val]
	return name, found
}

// literalSyntax reports whether e is built purely from numeric literals:
// 1000, 1e9, (1024), 1<<20, 1024*1024. Named constants deliberately pass —
// giving the factor a name is one sanctioned fix.
func literalSyntax(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT || e.Kind == token.FLOAT
	case *ast.BinaryExpr:
		return literalSyntax(e.X) && literalSyntax(e.Y)
	}
	return false
}
