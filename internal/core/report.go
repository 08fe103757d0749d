package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// Report is the outcome of running one system on one configuration. All
// traffic and energy figures are extrapolated to the full model (one
// optimizer step); Sim* fields record the raw simulation window.
type Report struct {
	System    string
	Model     string
	Optimizer string
	Precision string
	Params    int64

	// TotalUnits is the units one training step updates,
	// Config.TouchedUnits: every unit of a dense model, the touched
	// subset of a sparse one. SimUnits is the units the window simulated
	// (TotalUnits on the analytic row).
	TotalUnits int64
	SimUnits   int64
	SimTime    sim.Time // simulated window wall time
	SimEvents  uint64   // discrete events executed in the window (0 for analytic systems)

	// Simulated-window external-link traffic, unscaled: the bytes that
	// actually crossed each direction of the PCIe model during the window.
	// The invariant registry audits these against the per-unit accounting
	// (bytes entering the resource must equal bytes accounted), so a system
	// cannot silently drop or double-count transfers. Zero for analytic
	// systems.
	SimPCIeToDevBytes   int64
	SimPCIeFromDevBytes int64

	// OptStepTime is the full-model optimizer step latency, whatever the
	// overlap model: StepTime composes it with forward and backward.
	OptStepTime sim.Time

	// Per-step full-model traffic.
	PCIeBytes        int64
	BusBytes         int64
	NANDReadBytes    int64
	NANDProgramBytes int64
	DRAMBytes        int64
	HBMBytes         int64

	// Energy per full-model step.
	Energy energy.Breakdown

	// WAF observed in the simulation window.
	WAF float64

	// Mean busy fractions over the simulation window — which interface a
	// system is bound by shows up here as a utilisation near 1.
	LinkUtil float64 // busier PCIe direction
	BusUtil  float64 // mean channel-bus utilisation
	ODPUtil  float64 // mean on-die compute utilisation (OptimStore only)
	GPUUtil  float64 // update-kernel GPU utilisation (offload only)

	// Feasible is false when the system cannot run this point at all
	// (GPU-resident with state exceeding device memory).
	Feasible bool
	Notes    string

	// End-to-end training step: forward+backward compute, then the part
	// of the optimizer step it does not hide (Config.OverlapFraction, or
	// the layer-wise flow line under Config.LayerwiseOverlap).
	FwdBwdTime   sim.Time
	StepTime     sim.Time
	TokensPerSec float64

	// Fault-injection and checkpoint/restore accounting (internal/fault).
	// CheckpointPolicy is always set ("none" when checkpointing is off) so
	// faulted and fault-free reports stay structurally comparable. The
	// fault counts are the events that actually fired inside the simulated
	// window (ECC exhaustion's cost lands organically in SimTime; the
	// terminal kinds are priced below).
	CheckpointPolicy string
	PowerLossFaults  int
	DieFailFaults    int
	ECCFaults        int

	// CheckpointTime is the cost of taking one checkpoint per step under
	// the policy; CheckpointProgramBytes its NAND-program (WAF) cost —
	// nonzero only for the in-place policy, which snapshots device-side.
	CheckpointTime         sim.Time
	CheckpointProgramBytes int64

	// RecoveryTime totals, over every terminal fault fired in the window,
	// the restore cost plus the step work redone from the crash position.
	// RecoveryProgramBytes is the NAND-program traffic recovery issues
	// rolling resident state back to the last durable checkpoint.
	RecoveryTime         sim.Time
	RecoveryProgramBytes int64
}

// identity starts a report with the header every system fills alike.
func identity(name string, cfg *Config) *Report {
	return &Report{
		System:    name,
		Model:     cfg.Model.Name,
		Optimizer: cfg.Optimizer.String(),
		Precision: cfg.Precision.String(),
		Params:    cfg.Model.Params,
	}
}

// EventCount reports the simulated-event cost of producing this report,
// satisfying the runner's EventCounter interface for run summaries.
func (r *Report) EventCount() int64 { return int64(r.SimEvents) }

// EffectiveStepTime is the training-step latency with fault tolerance
// priced in: the step itself, one checkpoint under the policy, and any
// recovery incurred in the window.
func (r *Report) EffectiveStepTime() sim.Time {
	return r.StepTime + r.CheckpointTime + r.RecoveryTime
}

// EnergyPerParamPJ returns the per-parameter step energy in picojoules.
func (r *Report) EnergyPerParamPJ(params int64) float64 {
	if params == 0 {
		return 0
	}
	return r.Energy.Total() / float64(params) * units.PJPerJ
}

// Speedup returns how much faster this report's optimizer step is than
// other's.
func (r *Report) Speedup(other *Report) float64 {
	if r.OptStepTime == 0 {
		return 0
	}
	return float64(other.OptStepTime) / float64(r.OptStepTime)
}

// String renders a one-line summary.
func (r *Report) String() string {
	if !r.Feasible {
		return fmt.Sprintf("%-12s %-10s %-8s infeasible (%s)", r.System, r.Model, r.Optimizer, r.Notes)
	}
	return fmt.Sprintf("%-12s %-10s %-8s opt-step=%v step=%v tok/s=%.1f",
		r.System, r.Model, r.Optimizer, r.OptStepTime, r.StepTime, r.TokensPerSec)
}

// ReportTable renders a set of reports as one table.
func ReportTable(title string, reports []*Report) *stats.Table {
	t := stats.NewTable(title,
		"system", "model", "optimizer", "opt-step-ms", "step-ms", "tokens/s",
		"PCIe-GB", "bus-GB", "nand-prog-GB", "energy-J", "pJ/param")
	for _, r := range reports {
		if !r.Feasible {
			t.AddRow(r.System, r.Model, r.Optimizer, "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(r.System, r.Model, r.Optimizer,
			r.OptStepTime.Millis(), r.StepTime.Millis(), r.TokensPerSec,
			units.Bytes(r.PCIeBytes).GBf(), units.Bytes(r.BusBytes).GBf(),
			units.Bytes(r.NANDProgramBytes).GBf(), r.Energy.Total(),
			r.EnergyPerParamPJ(r.Params))
	}
	return t
}

// FaultTable renders the fault and checkpoint/restore accounting of
// several reports: fired fault counts, per-step checkpoint cost, total
// recovery cost, the effective step with both priced in, and the NAND
// program traffic (WAF cost) each policy incurs.
func FaultTable(title string, reports []*Report) *stats.Table {
	t := stats.NewTable(title,
		"system", "ckpt-policy", "pl", "df", "ecc",
		"ckpt-ms", "recovery-ms", "eff-step-ms", "ckpt-prog-GB", "rec-prog-GB")
	for _, r := range reports {
		if !r.Feasible {
			t.AddRow(r.System, r.CheckpointPolicy, "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(r.System, r.CheckpointPolicy,
			r.PowerLossFaults, r.DieFailFaults, r.ECCFaults,
			r.CheckpointTime.Millis(), r.RecoveryTime.Millis(),
			r.EffectiveStepTime().Millis(),
			units.Bytes(r.CheckpointProgramBytes).GBf(),
			units.Bytes(r.RecoveryProgramBytes).GBf())
	}
	return t
}

// EnergyTable renders the energy breakdown of several reports.
func EnergyTable(title string, reports []*Report) *stats.Table {
	t := stats.NewTable(title,
		"system", "nand-read-J", "nand-prog-J", "erase-J", "bus-J", "pcie-J",
		"dram-J", "hbm-J", "compute-J", "total-J")
	for _, r := range reports {
		if !r.Feasible {
			continue
		}
		e := r.Energy
		t.AddRow(r.System, e.NANDRead, e.NANDProgram, e.NANDErase, e.Bus,
			e.PCIe, e.DRAM, e.HBM, e.Compute, e.Total())
	}
	return t
}
