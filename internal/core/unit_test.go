package core

import (
	"testing"

	"repro/internal/sim"
)

// TestUnitFanOutJoin pins the join a unit record's fan-out stages use in
// place of a completion counter: only the last of n completions reports
// the stage done, and a completion past the last panics rather than
// running the continuation twice.
func TestUnitFanOutJoin(t *testing.T) {
	r := &rig{eng: sim.NewEngine()}
	u := r.getUnit()
	u.fanOut(uProgram, 3)
	for i := 1; i <= 3; i++ {
		if last := u.arrived(); last != (i == 3) {
			t.Fatalf("completion %d of 3 reported last=%v", i, last)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a fourth completion of a 3-way fan-out did not panic")
		}
	}()
	u.arrived()
}
