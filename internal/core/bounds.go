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
	r, ok := RooflineFor(system, cfg)
	if !ok {
		return Bound{}, false
	}
	return Bound{
		StepFloor:   r.Floor(),
		EnergyFloor: energyFloor(system, cfg),
		Binding:     r.Binding(),
	}, true
}

// energyFloor prices the mandatory traffic of one step. Every Activity
// component mirrors either the exact analytic assignment the system's
// report() makes (PCIe, DRAM, HBM, compute ops) or the conservation floor
// the invariant registry enforces on the simulated counters (NAND reads/
// programs, channel bus), using the same scaled-window arithmetic, so the
// floor can never exceed what the simulation reports.
func energyFloor(system string, cfg Config) float64 {
	kernel := kernelFor(cfg)
	simUnits := cfg.SimUnits()
	scale := cfg.ScaleFactor()
	totalUnits := cfg.TouchedUnits()
	comps := int64(cfg.Comps())
	pageSize := int64(cfg.SSD.Nand.PageSize)
	gradB := cfg.GradBytesPerUnit()
	woutB := cfg.WeightOutBytesPerUnit()
	residentB := cfg.ResidentBytesPerUnit()
	elems := int64(cfg.ElemsPerPage())
	flops := int64(kernel.FlopsPerElem)

	scaled := func(window int64) float64 {
		return float64(int64(float64(window) * scale))
	}

	var a energy.Activity
	switch system {
	case "optimstore":
		passes := int64(kernel.ReadPasses)
		a.NANDReadBytes = scaled(simUnits * comps * pageSize * passes)
		a.NANDProgramBytes = scaled(simUnits * comps * pageSize)
		// Scattered layouts add cross-die hops on top; the colocated
		// window is the proven floor for every layout.
		busWindow := simUnits * (gradB + woutB)
		if kernel.ReadPasses > 1 {
			busWindow += simUnits * 128 // trust-ratio reduction round trip
		}
		a.BusBytes = scaled(busWindow)
		a.PCIeBytes = float64((gradB + woutB) * totalUnits)
		a.DRAMBytes = float64((gradB + woutB) * totalUnits)
		a.ODPOps = float64(simUnits*elems*flops) * scale
	case "hostoffload":
		a.NANDReadBytes = scaled(simUnits * comps * pageSize)
		a.NANDProgramBytes = scaled(simUnits * comps * pageSize)
		a.BusBytes = scaled(simUnits * comps * pageSize * 2)
		a.PCIeBytes = float64(2 * residentB * totalUnits)
		a.DRAMBytes = float64(2 * residentB * totalUnits)
		a.HBMBytes = float64((2*residentB + gradB + woutB) * totalUnits)
		a.GPUOps = float64(totalUnits) * float64(elems) * float64(flops)
	case "interleaved":
		a.NANDReadBytes = scaled(simUnits * comps * pageSize)
		a.NANDProgramBytes = scaled(simUnits * comps * pageSize)
		a.BusBytes = scaled(simUnits * comps * pageSize * 2)
		a.PCIeBytes = float64(2 * residentB * totalUnits)
		a.DRAMBytes = float64((2*residentB + gradB + woutB) * totalUnits)
		a.CPUOps = float64(totalUnits) * float64(elems) * float64(flops)
	case "ctrlisp":
		a.NANDReadBytes = scaled(simUnits * comps * pageSize)
		a.NANDProgramBytes = scaled(simUnits * comps * pageSize)
		a.BusBytes = scaled(simUnits * comps * pageSize * 2)
		a.PCIeBytes = float64((gradB + woutB) * totalUnits)
		a.DRAMBytes = float64((2*residentB + gradB + woutB) * totalUnits)
		a.CPUOps = float64(totalUnits) * float64(elems) * float64(flops)
	case "gpuresident":
		spec := cfg.Spec()
		touched := float64(cfg.Model.Params) * cfg.Model.UpdateFraction()
		a.HBMBytes = touched * (2*spec.ResidentBytes() + float64(spec.GradBytes+spec.WeightOutBytes))
		a.GPUOps = touched * float64(flops)
	}
	return energy.DefaultCosts().Evaluate(a).Total()
}

// MeasureUpdateWAF measures the steady-state write-amplification factor
// of the full-sweep update stream by simulating it on one fixed
// scaled-down device of the given cell type and over-provisioning
// (ssd.UpdateWAFConfig), whatever geometry a configuration has. Lifetime
// pricing does not use it: SweepWAF decides the WAF from the full drive's
// own geometry. It remains the simulation that cross-checks that rule.
func MeasureUpdateWAF(cell nand.CellType, overProvision float64, steps int) (float64, error) {
	return measureUpdateWAFOn(ssd.UpdateWAFConfig(cell, overProvision), steps)
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
