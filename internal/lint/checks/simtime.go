package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// SimTime flags bare sim.Time(x) conversions of non-constant numeric
// expressions. sim.Time is nanoseconds by definition, but a raw
// conversion asserts "x is already nanoseconds" with no evidence — the
// same silent-unit-assumption shape as the buskbps bug, in the time
// domain. Named constructors carry the unit in their name: units.Nanos,
// units.Micros, units.Seconds, units.CyclesAtMHz, or a TransferTime
// helper. Constant expressions (2 * sim.Microsecond, sim.Time(0)) and
// re-typings of values that are already sim.Time stay legal.
var SimTime = &lint.Analyzer{
	Name: "simtime",
	Doc: "flags sim.Time(x) conversions of raw float64/int64 values; " +
		"construct durations via internal/units named constructors",
	Run: runSimTime,
}

func runSimTime(pass *lint.Pass) {
	for _, u := range pass.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				funTV, ok := u.Info.Types[call.Fun]
				if !ok || !funTV.IsType() || !isSimTime(funTV.Type) {
					return true
				}
				argTV, ok := u.Info.Types[call.Args[0]]
				if !ok || argTV.Value != nil {
					return true // constant: unit is auditable at the literal
				}
				if isSimTime(argTV.Type) {
					return true // Time → Time: a re-typing, not a unit claim
				}
				pass.Report(call.Pos(), "simtime",
					"raw sim.Time conversion of a non-constant value; name the unit via internal/units (Nanos/Micros/Seconds/CyclesAtMHz or a TransferTime helper)")
				return true
			})
		}
	}
}

// isSimTime reports whether t is the sim package's Time type.
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/sim")
}
