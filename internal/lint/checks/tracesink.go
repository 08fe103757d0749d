package checks

import (
	"go/ast"
	"strings"

	"repro/internal/lint"
)

// TraceSink flags fmt stream writes (fmt.Fprint*/Print*) in the trace
// recording and serialization packages. The Chrome trace file must be
// byte-identical across runs and worker-pool widths, so every byte it
// contains is produced by strconv appends through the sink in
// internal/tracing — an ad-hoc fmt.Fprintf of an event bypasses that
// sink, and %g/%v float formatting is exactly the kind of
// representation drift the golden trace test exists to catch.
// In-memory formatting (fmt.Sprintf for panic messages and String
// methods) stays legal: it never reaches a trace file.
//
// Category: tracesink.
var TraceSink = &lint.Analyzer{
	Name: "tracesink",
	Doc: "flags fmt.Fprint*/Print* stream writes in trace-producing packages; " +
		"trace bytes must go through internal/tracing's strconv-append sink",
	Run: runTraceSink,
}

func runTraceSink(pass *lint.Pass) {
	for _, u := range pass.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObj(u.Info, call)
				if pkgPathOf(obj) != "fmt" || isMethod(obj) {
					return true
				}
				name := obj.Name()
				if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
					pass.Reportf(call.Pos(), "tracesink",
						"fmt.%s stream write in a trace-producing package; emit trace bytes through internal/tracing's append-based sink (or //simlint:allow tracesink for non-trace output)", name)
				}
				return true
			})
		}
	}
}
