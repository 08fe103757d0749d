package checks_test

import (
	"testing"

	"repro/internal/lint/checks"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over a testdata tree (one package, or several when
// call chains or per-package findings must cross a package boundary)
// holding at least one positive (flagged, `// want`-annotated) and one
// negative case, plus an exercised //simlint:allow directive.

// TestNondeterminism runs over a two-package tree: findings in each
// package are reported against that package's files.
func TestNondeterminism(t *testing.T) {
	linttest.Run(t, "testdata/nondeterminism", checks.Nondeterminism)
}

// TestUnitConv includes the acceptance-gate case: the PR 1 buskbps-style
// `busMBps / 1000` conversion reintroduced in testdata must be flagged.
func TestUnitConv(t *testing.T) {
	linttest.Run(t, "testdata/unitconv", checks.UnitConv)
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, "testdata/floateq", checks.FloatEq)
}

func TestSimTime(t *testing.T) {
	linttest.Run(t, "testdata/simtime", checks.SimTime)
}

// TestTraceSink includes the acceptance-gate case: a direct fmt.Fprintf
// of trace bytes, the write shape that would bypass internal/tracing's
// byte-stable strconv sink, must be flagged.
func TestTraceSink(t *testing.T) {
	linttest.Run(t, "testdata/tracesink", checks.TraceSink)
}

// TestHotAlloc is an acceptance-gate case: a planted hot-path
// allocation two call-graph hops (and one package boundary) from the
// annotated root must be flagged with the full chain in the message.
func TestHotAlloc(t *testing.T) {
	linttest.Run(t, "testdata/hotalloc", checks.HotAlloc)
}

// TestPoolSafe is an acceptance-gate case: a planted use-after-release
// on one control-flow path (plus double-release, loop back-edge, and
// package-level escape variants) must be flagged, while
// release-then-reacquire and disjoint-path uses stay clean.
func TestPoolSafe(t *testing.T) {
	linttest.Run(t, "testdata/poolsafe", checks.PoolSafe)
}

func TestGlobalState(t *testing.T) {
	linttest.Run(t, "testdata/globalstate", checks.GlobalState)
}
