package core_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/invariant"
	"repro/internal/optim"
)

// boundPinConfigs is the fixed sample BoundFor is pinned over: every
// fourth of the first 40 seeded invariant configurations, the paper-scale
// default under LAMB (two read passes and the trust-ratio round trip on
// the bus) and the sparse DLRM zoo model (a step touches 0.1% of it).
func boundPinConfigs() []core.Config {
	var out []core.Config
	for i, cfg := range invariant.Configs(7, 40) {
		if i%4 == 0 {
			out = append(out, cfg)
		}
	}
	lamb := core.DefaultConfig(dnn.GPT13B())
	lamb.Optimizer = optim.LAMB
	return append(out, lamb, core.DefaultConfig(dnn.DLRM()))
}

// TestBoundForPins pins core.BoundFor for every system on a fixed config
// sample: the step floor in nanoseconds, the exact float64 bits of the
// energy floor and the binding constraint. The search prunes on both
// floors, so a change to either must be a conscious one. Regenerate
// deliberately with
// UPDATE_GOLDEN=1 go test -run TestBoundForPins ./internal/core/.
func TestBoundForPins(t *testing.T) {
	var b strings.Builder
	for i, cfg := range boundPinConfigs() {
		for _, name := range core.SystemNames() {
			bound, ok := core.BoundFor(name, cfg)
			if !ok {
				t.Fatalf("BoundFor(%q) unknown", name)
			}
			fmt.Fprintf(&b, "%d %s %s floor=%d energy=%#016x binding=%s\n",
				i, cfg.Model.Name, name, bound.StepFloor, math.Float64bits(bound.EnergyFloor), bound.Binding)
		}
	}
	got := b.String()

	const path = "testdata/bound_pins.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("bound pins diverge at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bound pins length %d lines, want %d", len(gl), len(wl))
	}
}

// TestBoundForAllocatesNothing keeps the search's enumeration path free of
// allocation: it prices every grid point with BoundFor.
func TestBoundForAllocatesNothing(t *testing.T) {
	cfg := core.DefaultConfig(dnn.GPT13B())
	for _, name := range core.SystemNames() {
		n := testing.AllocsPerRun(100, func() { core.BoundFor(name, cfg) })
		//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
		if n != 0 {
			t.Errorf("BoundFor(%q) allocates %v times per call", name, n)
		}
	}
}
