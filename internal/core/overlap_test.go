package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLayerwiseOverlapSimulated pins layer-wise overlap as post-processing
// of the optimizer step. Over the seeded invariant configurations, every
// other one under a fault storm, each system's layer-wise report must
// equal its non-overlap twin in every field but StepTime and
// TokensPerSec, and its StepTime must be the flow line's closed form.
func TestLayerwiseOverlapSimulated(t *testing.T) {
	policies := []fault.Policy{fault.CheckpointNone, fault.CheckpointInPlace, fault.CheckpointHostPull}
	for i, twin := range invariant.Configs(7, 40) {
		twin.LayerwiseOverlap = false
		twin.Checkpoint = policies[i%len(policies)]
		if i%2 == 0 {
			twin.Fault = fault.Spec{
				Seed:            int64(7*i + 1),
				PowerLossPerSec: 2_000,
				DieFailPerSec:   1_000,
				ECCPerSec:       4_000,
				HorizonMs:       5,
			}
		}
		layered := twin
		layered.LayerwiseOverlap = true
		for _, sys := range core.SystemNames() {
			want, got := mustRun(t, sys, twin), mustRun(t, sys, layered)
			if step := layerwiseStep(t, layered, want); got.Feasible && got.StepTime != step {
				t.Errorf("config %d, %s: StepTime %v, closed form %v", i, sys, got.StepTime, step)
			}
			got.StepTime, got.TokensPerSec = want.StepTime, want.TokensPerSec
			gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
					t.Errorf("config %d, %s: %s = %v under layer-wise overlap, %v without", i, sys,
						gv.Type().Field(f).Name, gv.Field(f).Interface(), wv.Field(f).Interface())
				}
			}
		}
	}
}

// layerwiseStep is the step of the two-stage flow line: after forward's
// third of fwd+bwd, backward emits n gradient chunks evenly over the rest,
// and the optimizer updates them in order at opt/n each. It cross-checks
// the closed form against the chunk-by-chunk finish times of the line.
func layerwiseStep(t *testing.T, cfg core.Config, twin *core.Report) sim.Time {
	t.Helper()
	per := cfg.GradChunkUnits()
	n := float64((cfg.TouchedUnits() + per - 1) / per)
	fwd := float64(twin.FwdBwdTime) / 3
	bwd := float64(twin.FwdBwdTime) - fwd
	opt := float64(twin.OptStepTime)
	closed := units.Nanos(fwd + max(bwd/n+opt, bwd+opt/n))

	var finish float64
	for k := 1.0; k <= n; k++ {
		finish = max(finish, fwd+bwd*k/n) + opt/n
	}
	if d := finish - float64(closed); d < -1 || d > 1 {
		t.Errorf("%s: flow line finishes at %.0f ns, its closed form at %v", cfg.Model.Name, finish, closed)
	}
	return closed
}

// mustRun builds and runs one system on cfg.
func mustRun(t *testing.T, name string, cfg core.Config) *core.Report {
	t.Helper()
	sys, err := core.NewSystem(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}
