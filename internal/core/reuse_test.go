package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/ecc"
	"repro/internal/fault"
	"repro/internal/invariant"
)

// TestShelvedOwnersReproduceReports runs a list of design points forward
// and then in reverse in one process, so almost every run takes a rig,
// device and engine that served another point before it. Each report
// must equal its counterpart field for field. The points are every
// simulated system on the default GPT-13B window and on seeded invariant
// configurations, among them the tier-5 fault storm under each
// checkpoint policy, read-suspend planes, block retirement and
// layer-wise overlap.
func TestShelvedOwnersReproduceReports(t *testing.T) {
	type point struct {
		sys string
		cfg core.Config
	}
	var systems []string
	for _, name := range core.SystemNames() {
		if d, _ := core.LookupSystem(name); d.Simulated() {
			systems = append(systems, name)
		}
	}
	base := core.DefaultConfig(dnn.GPT13B())
	base.MaxSimUnits = 256
	cfgs := []core.Config{base}
	policies := []fault.Policy{fault.CheckpointNone, fault.CheckpointInPlace, fault.CheckpointHostPull}
	for i, cfg := range invariant.Configs(11, 8) {
		switch i {
		case 0, 1, 2:
			cfg.Checkpoint = policies[i]
			cfg.Fault = fault.Spec{
				Seed:            int64(7*i + 1),
				PowerLossPerSec: 2_000,
				DieFailPerSec:   1_000,
				ECCPerSec:       4_000,
				HorizonMs:       5,
			}
		case 3:
			cfg.SSD.Nand.ReadSuspend = true
		case 4:
			cfg.SSD.Retire = ecc.RetirePolicy{RetryBudget: 8, ProbationReads: 4}
			cfg.Fault = fault.Spec{Seed: 5, ECCPerSec: 20_000, HorizonMs: 5}
		case 5:
			cfg.LayerwiseOverlap = true
		}
		cfgs = append(cfgs, cfg)
	}
	var points []point
	for _, cfg := range cfgs {
		for _, sys := range systems {
			points = append(points, point{sys, cfg})
		}
	}
	type outcome struct {
		r   *core.Report
		err string
	}
	run := func(p point) outcome {
		s, err := core.NewSystem(p.sys, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			return outcome{err: err.Error()}
		}
		return outcome{r: r}
	}
	forward := make([]outcome, len(points))
	for i, p := range points {
		forward[i] = run(p)
	}
	for i := len(points) - 1; i >= 0; i-- {
		if got := run(points[i]); !reflect.DeepEqual(got, forward[i]) {
			t.Errorf("point %d (%s): run forward\n  %+v\nrun in reverse\n  %+v", i, points[i].sys, forward[i], got)
		}
	}
}
