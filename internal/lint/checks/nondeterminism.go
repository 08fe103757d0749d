package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Nondeterminism flags the three sources of run-to-run variation that can
// leak into simulator output: wall-clock reads, the globally seeded
// math/rand generator, and iteration over maps (whose order Go randomises
// per run). The simulation kernel is specified to be bit-for-bit
// reproducible — see internal/sim's package comment — so inside the
// modelling packages all three are bugs unless explicitly allowed.
//
// Categories: wallclock, globalrand, maporder.
var Nondeterminism = &lint.Analyzer{
	Name: "nondeterminism",
	Doc: "flags time.Now/Since-style wall-clock reads, global math/rand use, " +
		"and range over maps in simulation packages; suppress intentional uses " +
		"with //simlint:allow wallclock (etc.)",
	Run: runNondeterminism,
}

// wallclockFuncs are the time-package functions that observe or depend on
// the host clock. time.Duration arithmetic and constants stay legal.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators — the sanctioned alternative to the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNondeterminism(pass *lint.Pass) {
	for _, u := range pass.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					obj := calleeObj(u.Info, n)
					switch pkgPathOf(obj) {
					case "time":
						if wallclockFuncs[obj.Name()] && !isMethod(obj) {
							pass.Reportf(n.Pos(), "wallclock",
								"wall-clock call time.%s in a simulation package; simulated time must come from sim.Engine", obj.Name())
						}
					case "math/rand", "math/rand/v2":
						if !isMethod(obj) && !randConstructors[obj.Name()] {
							pass.Reportf(n.Pos(), "globalrand",
								"global math/rand call rand.%s; use an explicitly seeded rand.New(rand.NewSource(seed))", obj.Name())
						}
					}
				case *ast.RangeStmt:
					if n.Key == nil && n.Value == nil {
						// `for range m` observes only len(m): order-free.
						return true
					}
					if tv, ok := u.Info.Types[n.X]; ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							pass.Report(n.Pos(), "maporder",
								"range over map iterates in randomized order; sort the keys first (or //simlint:allow maporder if provably order-free)")
						}
					}
				}
				return true
			})
		}
	}
}
