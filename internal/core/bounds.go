package core

import (
	"repro/internal/energy"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Bound is the analytic optimistic estimate of one design point, computed
// without running a simulation. Both components are true lower bounds on
// what the simulator can report, machine-guaranteed by the invariant
// registry (internal/invariant):
//
//   - StepFloor is the roofline floor; the roofline-sandwich invariant
//     pins floor ≤ simulated for every system and configuration.
//   - EnergyFloor prices exactly the traffic the conservation invariants
//     (pcie-conservation, bus-conservation, nand-accounting) prove every
//     simulated report must carry, at the same per-byte/per-op costs the
//     systems use. Components the invariants do not floor (GC erase
//     bytes, relocation traffic) enter at zero, and every cost constant
//     is positive, so EnergyFloor ≤ simulated energy.
//
// The autotuner (internal/search) prunes a candidate only when an already
// simulated point beats the candidate's Bound in every objective — since
// the bound is optimistic, the pruned candidate's actual results could
// only have been worse, so pruning never discards a Pareto point.
type Bound struct {
	StepFloor   sim.Time
	EnergyFloor float64 // joules
	Binding     string  // binding roofline constraint, for reports
}

// BoundFor computes the analytic bound of one (system, config) point.
// ok is false for unknown system names.
func BoundFor(system string, cfg Config) (Bound, bool) {
	d, ok := LookupSystem(system)
	if !ok {
		return Bound{}, false
	}
	q := d.quantities(&cfg)
	r := d.roofline(q)
	return Bound{
		StepFloor:   r.Floor(),
		EnergyFloor: energy.DefaultCosts().Evaluate(d.floorActivity(q)).Total(),
		Binding:     r.Binding(),
	}, true
}

// floorActivity is the mandatory activity of one step: the window traffic
// the conservation invariants enforce on the simulated counters (NAND
// reads and programs, channel bus), extrapolated with the reports'
// scaled-window arithmetic, plus the host traffic and kernel work every
// report assigns exactly. The simulation can only add to it.
func (d *Design) floorActivity(q quantities) energy.Activity {
	scale := q.cfg.ScaleFactor()
	scaled := func(window int64) float64 {
		return float64(int64(float64(window) * scale))
	}
	w := d.window(q)
	// Scattered layouts add cross-die hops on top of the window's bus
	// bytes; the colocated window is the floor for every layout.
	a := energy.Activity{
		NANDReadBytes:    scaled(w.NANDRead),
		NANDProgramBytes: scaled(w.NANDProgram),
		BusBytes:         scaled(w.Bus),
		PCIeBytes:        q.units * d.toDev.plus(d.fromDev).per(q),
		DRAMBytes:        q.units * d.dram.per(q),
		HBMBytes:         q.units * d.hbm.per(q),
	}
	d.exec.charge(&a, d.exec.ops(q))
	return a
}

// ops is the kernel work of one step on the executor. On-die work is
// counted over the simulated window and extrapolated, as the simulated
// units' own counters are; the other executors run every touched unit.
func (e executor) ops(q quantities) float64 {
	flops := int64(q.kernel.FlopsPerElem)
	if e == execODP {
		return float64(q.cfg.SimUnits()*int64(q.elems)*flops) * q.cfg.ScaleFactor()
	}
	return q.units * q.elems * float64(flops)
}

// charge books n kernel operations to the executor's energy account.
func (e executor) charge(a *energy.Activity, n float64) {
	switch e {
	case execODP:
		a.ODPOps = n
	case execGPU:
		a.GPUOps = n
	default: // execCtrl, execHostCPU
		a.CPUOps = n
	}
}

// MeasureUpdateWAF measures the steady-state write-amplification factor
// of the full-sweep update stream by simulating it on one fixed
// scaled-down device of the given cell type and over-provisioning
// (ssd.UpdateWAFConfig), whatever geometry a configuration has. Lifetime
// pricing does not use it: SweepWAF decides the WAF from the full drive's
// own geometry. It remains the simulation that cross-checks that rule.
func MeasureUpdateWAF(cell nand.CellType, overProvision float64, steps int) (float64, error) {
	waf, _, err := ssd.UpdateWAFConfig(cell, overProvision).SimulateSweeps(nil, steps)
	return waf, err
}

// SweepWAF decides the steady-state update WAF of cfg's full drive with
// the state region in the given cell mode (ssd.Config.SweepWAF): exactly
// 1, or an error naming the shortfall when greedy GC could relocate valid
// pages.
func SweepWAF(cfg Config, cell nand.CellType) (float64, error) {
	return fullDrive(cfg, cell).SweepWAF()
}

// fullDrive is the drive a configuration describes, with its state region
// in the given cell mode: cfg's channels, dies, over-provisioning and GC
// policy over the full datasheet die of that cell (1024 blocks per
// plane), not the reduced simulation window.
func fullDrive(cfg Config, cell nand.CellType) ssd.Config {
	d := cfg.SSD
	d.Nand = nand.ParamsFor(cell)
	return d
}

// AnalyticLifetime computes the wear-limited device lifetime of a
// configuration, in optimizer steps, at a given steady-state WAF: the
// state footprint times WAF is programmed each step, spread across the
// full drive's blocks with ideal wear levelling. fits is false (and steps
// zero) when the state does not fit the usable capacity — the same
// capacity test RunEndurance applies.
func AnalyticLifetime(cfg Config, cell nand.CellType, waf float64) (steps float64, fits bool) {
	stateBytes := int64(float64(cfg.Model.Params) * cfg.Spec().ResidentBytes())
	drive := fullDrive(cfg, cell)
	geo := drive.Geometry()
	usable := float64(geo.TotalBytes()) * (1 - cfg.SSD.OverProvision)
	if float64(stateBytes) > usable {
		return 0, false
	}
	wear := nand.DefaultWearModel(cell)
	erasesPerStep := float64(stateBytes) * waf / float64(drive.Nand.BlockBytes())
	return wear.LifetimeSteps(geo.BlocksTotal(), erasesPerStep), true
}
