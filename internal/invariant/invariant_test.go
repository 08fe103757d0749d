package invariant

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/optim"
	"repro/internal/runner"
)

// sweepN is the breadth of the main property sweep. The acceptance bar for
// the invariant subsystem is that every registered property holds for all
// four systems across at least 200 generated configurations.
const sweepN = 200

const sweepSeed = 7

func TestConfigsDeterministic(t *testing.T) {
	a := Configs(sweepSeed, 20)
	b := Configs(sweepSeed, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Configs is not deterministic for a fixed seed")
	}
	c := Configs(sweepSeed+1, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("Configs ignores its seed")
	}
	for i, cfg := range a {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d invalid: %v", i, err)
		}
		if !windowFits(cfg) {
			t.Errorf("config %d window overfills the device slice", i)
		}
	}
}

func TestRegistryCoversAllSystems(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range registry {
		if seen[p.Name] {
			t.Errorf("duplicate property name %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, sys := range core.SystemNames() {
		if n := len(Properties(sys)); n < 3 {
			t.Errorf("system %s has only %d applicable properties", sys, n)
		}
	}
}

// TestSweepAllSystems is the tentpole check: every registered property
// holds for every system across sweepN generated configurations.
func TestSweepAllSystems(t *testing.T) {
	cfgs := Configs(sweepSeed, sweepN)
	type verdict struct {
		violations []string
		events     int64
	}
	results := runner.Map(0, cfgs, func(cfg core.Config) (*verdict, error) {
		v := &verdict{}
		for _, sys := range core.SystemNames() {
			r, err := Run(sys, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sys, err)
			}
			v.events += int64(r.SimEvents)
			for _, viol := range r.Violations {
				v.violations = append(v.violations, fmt.Sprintf("%s: %s", sys, viol))
			}
		}
		return v, nil
	})
	var bad int
	for i, res := range results {
		if res.Err != nil {
			bad++
			t.Errorf("config %d: run failed: %v\n  cfg: %s", i, res.Err, describe(cfgs[i]))
			continue
		}
		for _, viol := range res.Value.violations {
			bad++
			t.Errorf("config %d: %s\n  cfg: %s", i, viol, describe(cfgs[i]))
		}
		if bad > 25 {
			t.Fatalf("too many violations; stopping early")
		}
	}
}

// describe renders the swept dimensions of a config for failure triage.
func describe(cfg core.Config) string {
	return fmt.Sprintf("%s params=%d frac=%g %s/%s layout=%v ssd=%dch×%ddie cell=%v bus=%dMBps link=%s window=%d chunk=%d lwo=%v",
		cfg.Model.Name, cfg.Model.Params, cfg.Model.UpdateFraction(),
		cfg.Optimizer, cfg.Precision, cfg.Layout,
		cfg.SSD.Channels, cfg.SSD.DiesPerChannel, cfg.SSD.Nand.Cell, cfg.SSD.Nand.BusMBps,
		cfg.Link.Name, cfg.MaxSimUnits, cfg.TransferChunkBytes, cfg.LayerwiseOverlap)
}

func TestDeterminismAcrossSweep(t *testing.T) {
	cfgs := Configs(sweepSeed+11, 12)
	type pair struct {
		sys string
		cfg core.Config
	}
	var jobs []pair
	for _, cfg := range cfgs {
		for _, sys := range core.SystemNames() {
			jobs = append(jobs, pair{sys, cfg})
		}
	}
	results := runner.Map(0, jobs, func(p pair) (struct{}, error) {
		return struct{}{}, CheckDeterminism(p.sys, p.cfg)
	})
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v\n  cfg: %s", jobs[i].sys, res.Err, describe(jobs[i].cfg))
		}
	}
}

func TestResourceMonotonicity(t *testing.T) {
	cfgs := Configs(sweepSeed+23, 8)
	type pair struct {
		sys string
		cfg core.Config
	}
	var jobs []pair
	for _, cfg := range cfgs {
		for _, sys := range core.SystemNames() {
			jobs = append(jobs, pair{sys, cfg})
		}
	}
	results := runner.Map(0, jobs, func(p pair) ([]MonotonicityViolation, error) {
		return CheckResourceMonotonicity(p.sys, p.cfg)
	})
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v\n  cfg: %s", jobs[i].sys, res.Err, describe(jobs[i].cfg))
			continue
		}
		for _, v := range res.Value {
			t.Errorf("%s: %v\n  cfg: %s", jobs[i].sys, v, describe(jobs[i].cfg))
		}
	}
}

func TestModelMonotonicity(t *testing.T) {
	cfgs := Configs(sweepSeed+31, 8)
	type pair struct {
		sys string
		cfg core.Config
	}
	var jobs []pair
	for _, cfg := range cfgs {
		for _, sys := range core.SystemNames() {
			jobs = append(jobs, pair{sys, cfg})
		}
	}
	results := runner.Map(0, jobs, func(p pair) (*MonotonicityViolation, error) {
		return CheckModelMonotonicity(p.sys, p.cfg)
	})
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v\n  cfg: %s", jobs[i].sys, res.Err, describe(jobs[i].cfg))
			continue
		}
		if res.Value != nil {
			t.Errorf("%s: %v\n  cfg: %s", jobs[i].sys, res.Value, describe(jobs[i].cfg))
		}
	}
}

// busBoundConfig builds a configuration whose optimstore step is limited
// by the channel bus: a narrow 2×1 topology with a deliberately slow bus,
// fast SLC media, a generous link and strong on-die compute.
func busBoundConfig() core.Config {
	cfg := core.DefaultConfig(dnn.Model{
		Name: "synth-gpt", Arch: dnn.Transformer,
		Params: 50_000_000, Layers: 8, Hidden: 1024, SeqLen: 512,
	})
	cfg.SSD.Channels = 2
	cfg.SSD.DiesPerChannel = 1
	n := nand.ParamsFor(nand.SLC) // fast media, so the bus can dominate
	n.BlocksPerPlane = 64
	n.BusMBps = 50
	cfg.SSD.Nand = n
	cfg.Link = host.PCIe(5, 16)
	cfg.Optimizer = optim.Adam
	cfg.Precision = optim.Mixed16
	cfg.Layout = layout.Colocated
	cfg.MaxSimUnits = 192
	cfg.ODP.ClockMHz = 800
	cfg.ODP.Lanes = 16
	return cfg
}

// TestBrokenModelCaught is the registry's negative control: a simulator
// whose channel bus runs twice as fast as the configuration claims (the
// classic unit-conversion bug) must be caught by the roofline sandwich.
// The report is produced by a "broken" device whose bus is 2× the declared
// speed, then audited against the true configuration.
func TestBrokenModelCaught(t *testing.T) {
	trueCfg := busBoundConfig()

	// Sanity: the honest simulator on the honest config is clean, and the
	// bus really is the binding constraint (otherwise the test is vacuous).
	honest, err := Run(core.SystemOptimStore, trueCfg)
	if err != nil {
		t.Fatalf("honest run: %v", err)
	}
	if len(honest.Violations) > 0 {
		t.Fatalf("honest run not clean: %v", honest.Violations)
	}
	rf, _ := core.RooflineFor(core.SystemOptimStore, trueCfg)
	if rf.Binding() != "bus" {
		t.Fatalf("config not bus-bound (binding=%s); negative test is vacuous", rf.Binding())
	}

	// The broken simulator: identical in every respect except its bus
	// moves bytes twice as fast as the configuration says it should.
	brokenCfg := trueCfg
	brokenCfg.SSD.Nand.BusMBps *= 2
	sys, err := core.NewSystem(core.SystemOptimStore, brokenCfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	violations := Check(core.SystemOptimStore, trueCfg, report)
	found := false
	for _, v := range violations {
		if strings.HasPrefix(v, "roofline-sandwich:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("halved bus time escaped the roofline sandwich; violations: %v", violations)
	}
}

// TestSerializationCaught is the mirror-image negative control: a report
// claiming a step far above the sandwich ceiling (an accidental
// serialization) must also be flagged.
func TestSerializationCaught(t *testing.T) {
	cfg := busBoundConfig()
	r, err := Run(core.SystemOptimStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) > 0 {
		t.Fatalf("clean run expected, got %v", r.Violations)
	}
	r.OptStepTime *= 100
	violations := Check(core.SystemOptimStore, cfg, r)
	found := false
	for _, v := range violations {
		if strings.HasPrefix(v, "roofline-sandwich:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("100× inflated step escaped the roofline sandwich; violations: %v", violations)
	}
}

// TestAuditRecordsOnReport verifies Audit writes violations onto the
// report, where invariant.Run hands them to the sweep.
func TestAuditRecordsOnReport(t *testing.T) {
	cfg := busBoundConfig()
	r, err := Run(core.SystemOptimStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Violations = nil
	r.OptStepTime = 0 // structural breakage: report-sane must fire
	got := Audit(core.SystemOptimStore, cfg, r)
	if len(got) == 0 || len(r.Violations) == 0 {
		t.Fatalf("Audit did not record violations: ret=%v field=%v", got, r.Violations)
	}
}
