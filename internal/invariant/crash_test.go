package invariant

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// crashConfig is the device the crash-point enumerator sweeps: small
// enough that a few hundred full replays run in well under a second,
// churny enough that the boundary stream contains host writes, updates,
// GC relocations, and erases.
func crashConfig() ssd.Config {
	n := nand.ParamsFor(nand.TLC)
	n.BlocksPerPlane = 8
	n.PagesPerBlock = 4
	n.PlanesPerDie = 2
	return ssd.Config{
		Channels:          2,
		DiesPerChannel:    2,
		Nand:              n,
		OverProvision:     0.25,
		GCLowWater:        2,
		GCHighWater:       3,
		HotColdSeparation: true,
		CachePages:        16,
		DRAMPageLatency:   2 * sim.Microsecond,
		CmdLatency:        5 * sim.Microsecond,
	}
}

// TestCrashPointEnumeration is the exhaustive crash-consistency harness:
// one full configuration is replayed with the power cut dead at every
// single FTL op boundary, and after each crash the recovered device must
// satisfy the crash invariants:
//
//   - no live-page loss: every lpa mapped at the crash instant is mapped
//     after replay, to the same physical page;
//   - no resurrection: nothing unmapped at the crash is mapped after;
//   - durability: each recovered mapping points at the exact physical
//     page of the last completed commit (the commit hook's record), so
//     recovered state is bit-identical to the last durable version;
//   - mapped ⊆ programmed and full FTL consistency (checked inside
//     ssd.Recover, re-checked here).
func TestCrashPointEnumeration(t *testing.T) {
	// committed is the durable shadow of the run currently being replayed:
	// lpa → linear PPA of its last completed commit. Rebuilt by build (the
	// enumerator runs strictly one replay at a time).
	var committed map[int64]int64

	build := func(eng *sim.Engine) *ssd.Device {
		dev := ssd.NewDevice(eng, crashConfig())
		committed = make(map[int64]int64)
		dev.SetCommitHook(func(lpa, oldLin, newLin int64, gc bool) {
			committed[lpa] = newLin
		})
		n := dev.Config().LogicalPages() * 3 / 4
		for lpa := int64(0); lpa < n; lpa++ {
			dev.Preload(lpa)
		}
		return dev
	}
	drive := func(dev *ssd.Device) {
		n := dev.Config().LogicalPages() * 3 / 4
		// One in-flight op per lpa, so the last durable version of every
		// page is unambiguous at any crash point.
		for lpa := int64(0); lpa < n; lpa += 2 {
			dev.ProgramUpdate(lpa, nil)
		}
		for lpa := n; lpa < n+16; lpa++ {
			dev.Write(lpa, nil)
		}
	}
	check := func(k int, b ssd.Boundary, crashed, recovered *ssd.Device, info *ssd.RecoveryInfo) error {
		if err := recovered.FTL().CheckConsistent(); err != nil {
			return err
		}
		geo := crashed.Geometry()
		logical := crashed.Config().LogicalPages()
		var mapped int64
		for lpa := int64(0); lpa < logical; lpa++ {
			before, okBefore := crashed.FTL().Lookup(lpa)
			after, okAfter := recovered.FTL().Lookup(lpa)
			switch {
			case okBefore && !okAfter:
				return fmt.Errorf("live page lost: lpa %d mapped at crash, unmapped after replay", lpa)
			case !okBefore && okAfter:
				return fmt.Errorf("resurrection: lpa %d unmapped at crash, mapped after replay", lpa)
			case !okBefore:
				continue
			}
			mapped++
			if before != after {
				return fmt.Errorf("lpa %d moved %v -> %v across recovery", lpa, before, after)
			}
			if lin, ok := committed[lpa]; !ok || lin != geo.Linear(after) {
				return fmt.Errorf("lpa %d recovered to linear %d, last durable commit was %d",
					lpa, geo.Linear(after), lin)
			}
		}
		if mapped != info.MappedPages {
			return fmt.Errorf("recovery reports %d mapped pages, recount %d", info.MappedPages, mapped)
		}
		return nil
	}

	boundaries, err := fault.EnumerateCrashPoints(build, drive, check)
	if err != nil {
		t.Fatal(err)
	}
	if boundaries < 80 {
		t.Fatalf("workload produced only %d op boundaries — not an exhaustive sweep", boundaries)
	}
	t.Logf("crash-consistency invariants held at all %d op boundaries", boundaries)
}

// TestFaultFreeEquivalence is the metamorphic check across generated
// configurations: a faulted run whose entire fault window lies after
// completion produces a report deep-equal to the fault-free run's, for
// every system.
func TestFaultFreeEquivalence(t *testing.T) {
	cfgs := Configs(sweepSeed+17, 5)
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
		base, err := Run(p.sys, p.cfg)
		if err != nil {
			return struct{}{}, err
		}
		faulted := p.cfg
		// Simulated windows are milliseconds; 10 s is beyond all of them.
		faulted.Fault = fault.Spec{
			Seed: 13, PowerLossPerSec: 1000, DieFailPerSec: 1000, ECCPerSec: 1000,
			StartMs: 10_000, HorizonMs: 10_100,
		}
		late, err := Run(p.sys, faulted)
		if err != nil {
			return struct{}{}, err
		}
		if !reflect.DeepEqual(base, late) {
			return struct{}{}, fmt.Errorf("late faults perturbed the run:\nbase: %+v\nlate: %+v", base, late)
		}
		return struct{}{}, nil
	})
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v\n  cfg: %s", jobs[i].sys, res.Err, describe(jobs[i].cfg))
		}
	}
}

// faultStormConfigs is the seeded 200-config mixed-fault sweep: every
// config gets a per-index fault storm and a cycling checkpoint policy
// (with a fault-free config mixed in every fifth slot).
func faultStormConfigs() []core.Config {
	cfgs := Configs(sweepSeed+23, sweepN)
	policies := []fault.Policy{fault.CheckpointNone, fault.CheckpointInPlace, fault.CheckpointHostPull}
	for i := range cfgs {
		cfgs[i].Checkpoint = policies[i%len(policies)]
		if i%5 == 4 {
			continue // fault-free control point
		}
		cfgs[i].Fault = fault.Spec{
			Seed:            int64(7*i + 1),
			PowerLossPerSec: 2_000,
			DieFailPerSec:   1_000,
			ECCPerSec:       4_000,
			HorizonMs:       5,
		}
	}
	return cfgs
}

// TestFaultSweepDeterminism pins golden determinism for faulted runs: the
// 200-config mixed-fault sweep renders byte-identically across reruns and
// across worker widths (1 vs 8).
func TestFaultSweepDeterminism(t *testing.T) {
	// Both fault-bearing offload pipelines sweep: optimstore (on-die
	// update) and interleaved (host update via subgroup streams) schedule
	// faults against very different event shapes, so determinism of one
	// does not imply the other.
	systems := []string{core.SystemOptimStore, core.SystemInterleaved}
	sweep := func(width int) []string {
		cfgs := faultStormConfigs()
		results := runner.Map(width, cfgs, func(cfg core.Config) (string, error) {
			var s string
			for _, sys := range systems {
				r, err := Run(sys, cfg)
				if err != nil {
					return "", fmt.Errorf("%s: %w", sys, err)
				}
				s += fmt.Sprintf("%s: %+v\n", sys, r)
			}
			return s, nil
		})
		out := make([]string, len(results))
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("config %d: %v\n  cfg: %s", i, res.Err, describe(cfgs[i]))
			}
			out[i] = res.Value
		}
		return out
	}
	serial := sweep(1)
	wide := sweep(8)
	rerun := sweep(8)
	var fired int
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("config %d diverges between widths 1 and 8:\n%s\n%s", i, serial[i], wide[i])
		}
		if wide[i] != rerun[i] {
			t.Fatalf("config %d diverges across reruns at width 8:\n%s\n%s", i, wide[i], rerun[i])
		}
	}
	// The sweep must actually exercise faults, not vacuously agree.
	for _, sys := range systems {
		reports := runner.Map(8, faultStormConfigs(), func(cfg core.Config) (*core.Report, error) {
			return Run(sys, cfg)
		})
		for _, res := range reports {
			if res.Err == nil {
				fired += res.Value.PowerLossFaults + res.Value.DieFailFaults + res.Value.ECCFaults
			}
		}
	}
	if fired == 0 {
		t.Fatal("mixed-fault sweep fired no faults at all — storm rates too low for the windows")
	}
}
