// Package findings holds the shapes the simlint driver must handle: an
// in-scope finding, an out-of-scope finding under an allow, and an allow
// that only a whole-load-set analyzer uses.
package findings

import (
	"fmt"
	"time"
)

var calls int

// Stamp reads the wall clock: nondeterminism governs cmd/..., so the
// finding is reported.
func Stamp() time.Time {
	return time.Now()
}

// Log writes through fmt. tracesink governs only internal/tracing, so
// its finding here is dropped and the allow beside it suppresses
// nothing.
func Log() {
	fmt.Println("log") //simlint:allow tracesink out of scope here, so reported stale
}

// Count writes package-level state; only globalstate uses the allow.
func Count() {
	calls++ //simlint:allow globalstate the driver test's module-analyzer allow
}
