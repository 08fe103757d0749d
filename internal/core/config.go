// Package core assembles the substrates into the five systems the
// reproduction compares:
//
//   - OptimStore   — in-storage optimizer update with on-die processing,
//   - HostOffload  — ZeRO-Infinity-style baseline: state streamed to the
//     GPU over PCIe, updated there, streamed back,
//   - Interleaved  — Deep-Optimizer-States-style baseline: state streamed
//     to the host CPU in subgroups whose prefetch, update, and write-back
//     phases overlap in a deep pipeline,
//   - CtrlISP      — in-storage processing at the SSD controller (near-
//     storage but not on-die),
//   - GPUResident  — the no-offload reference, feasible only while
//     optimizer state fits in device memory.
//
// Every system consumes one Config and produces one Report; the benchmark
// harness sweeps Config fields to regenerate the paper's tables and
// figures.
package core

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/odp"
	"repro/internal/optim"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/units"
)

// Config describes one experiment point.
type Config struct {
	SSD  ssd.Config
	ODP  odp.Params
	Link host.LinkParams
	GPU  host.GPUParams
	// HostCPU is the host-side update engine (unused by the default
	// GPU-offload baseline but reported for reference).
	HostCPU host.CPUParams
	// CtrlCPU is the SSD controller's embedded compute, used by CtrlISP.
	CtrlCPU host.CPUParams

	Optimizer optim.Kind
	Precision optim.Precision
	Layout    layout.Strategy
	Model     dnn.Model
	Batch     int

	// GradAccum is the number of micro-batch gradients folded into
	// resident state per optimizer step. Only AdamA (Adam Accumulation)
	// supports in-state folding, so Validate rejects values above 1 for
	// every other optimizer. Zero means 1 (no accumulation); see Accum.
	GradAccum int

	// InterleaveDepth is the number of state subgroups K the Interleaved
	// system partitions the step into: while subgroup i updates on the
	// host, i+1 prefetches and i−1 writes back, so host staging memory
	// holds ~3/K of the resident state at a time. Larger K shrinks the
	// staging footprint but narrows the transfer pipeline. Zero means the
	// default of 4; see Depth. Other systems ignore it.
	InterleaveDepth int

	// MaxSimUnits caps the number of update units simulated at event
	// granularity. The optimizer step is throughput-bound and perfectly
	// homogeneous, so results from the window extrapolate linearly to the
	// full parameter count (Report records both).
	MaxSimUnits int64

	// TransferChunkBytes batches PCIe transfers, amortising per-DMA
	// latency the way real runtimes do.
	TransferChunkBytes int64

	// OverlapFraction is the fraction of forward+backward compute the
	// optimizer step can hide under (gradients stream out during the
	// backward pass). Applied identically to every system.
	OverlapFraction float64

	// ComputeHook, when set, is invoked synchronously each time a unit's
	// optimizer kernel executes on its home die (in simulation-event
	// order). Functional co-simulation uses it to apply the real optimizer
	// math in exactly the order the hardware would, proving the
	// event-driven pipeline preserves numerics. Nil in normal runs.
	ComputeHook func(unit int64)

	// Trace, when set, is installed as each system's engine tracer before
	// any work is scheduled, recording resource hold/wait spans and the
	// model phase spans (grad-transfer, read, kernel, program, ...) on
	// the "phase" track. The analytic systems (GPUResident, Checkpoint)
	// emit synthetic spans directly. Nil disables tracing entirely; the
	// hot paths then cost a single branch (see internal/tracing).
	Trace sim.Tracer

	// Fault is the seed-driven fault-injection storm applied to the run
	// (internal/fault): power loss, die failure, and ECC exhaustion as
	// first-class simulation events. The zero value disables injection
	// entirely and costs nothing.
	Fault fault.Spec

	// Checkpoint selects the optimizer-state checkpoint policy priced in
	// the report's fault accounting (one checkpoint per step, restores per
	// terminal fault). CheckpointNone recovers by re-streaming from the
	// host's master copy.
	Checkpoint fault.Policy

	// LayerwiseOverlap switches the end-to-end model from the scalar
	// OverlapFraction formula to a simulated pipeline: gradient chunks
	// become available as the backward pass produces them (last layer
	// first), and the simulation measures the true overlapped step time.
	// Report.StepTime is then the simulated pipeline span and
	// Report.OptStepTime the optimizer cost exposed beyond fwd+bwd.
	LayerwiseOverlap bool
}

// DefaultConfig returns the baseline experiment configuration for a model.
func DefaultConfig(model dnn.Model) Config {
	return Config{
		SSD:                ssd.DefaultConfig(),
		ODP:                odp.DefaultParams(),
		Link:               host.PCIe(3, 4),
		GPU:                host.A100_40(),
		HostCPU:            host.XeonHost(),
		CtrlCPU:            host.SSDController(),
		Optimizer:          optim.Adam,
		Precision:          optim.Mixed16,
		Layout:             layout.Colocated,
		Model:              model,
		Batch:              8,
		MaxSimUnits:        2048,
		TransferChunkBytes: 1 << 20,
		OverlapFraction:    0.5,
	}
}

// Validate reports the first structural problem.
func (c Config) Validate() error {
	if err := c.SSD.Validate(); err != nil {
		return err
	}
	if err := c.ODP.Validate(); err != nil {
		return err
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	if err := c.HostCPU.Validate(); err != nil {
		return err
	}
	if err := c.CtrlCPU.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Batch <= 0 {
		return fmt.Errorf("core: batch %d", c.Batch)
	}
	if c.MaxSimUnits <= 0 {
		return fmt.Errorf("core: MaxSimUnits %d", c.MaxSimUnits)
	}
	if c.TransferChunkBytes <= 0 {
		return fmt.Errorf("core: TransferChunkBytes %d", c.TransferChunkBytes)
	}
	if c.OverlapFraction < 0 || c.OverlapFraction > 1 {
		return fmt.Errorf("core: OverlapFraction %v", c.OverlapFraction)
	}
	if c.GradAccum < 0 {
		return fmt.Errorf("core: GradAccum %d", c.GradAccum)
	}
	if c.GradAccum > 1 && c.Optimizer != optim.AdamA {
		return fmt.Errorf("core: GradAccum %d requires the AdamA optimizer (got %s): only Adam Accumulation folds micro-batch gradients into resident state", c.GradAccum, c.Optimizer)
	}
	if c.InterleaveDepth < 0 {
		return fmt.Errorf("core: InterleaveDepth %d", c.InterleaveDepth)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	// The on-die unit must stage every resident page of a unit plus the
	// incoming gradient page simultaneously; a smaller buffer cannot run
	// the kernel at all.
	need := units.Bytes((c.Comps() + 1) * c.SSD.Nand.PageSize)
	if have := units.Bytes(c.ODP.BufferKB) * units.KiB; have < need {
		return fmt.Errorf("core: ODP buffer %d KiB cannot stage %d pages of %d B (%s needs %d KiB)",
			c.ODP.BufferKB, c.Comps()+1, c.SSD.Nand.PageSize, c.Optimizer, need/units.KiB)
	}
	return nil
}

// Spec returns the per-parameter byte footprint for the configured
// optimizer and precision, with gradient-accumulation traffic priced in.
func (c Config) Spec() optim.StateSpec {
	return optim.SpecFor(c.Optimizer, c.Precision).WithAccum(c.Accum())
}

// Accum returns the effective gradient-accumulation factor (GradAccum
// with the zero value meaning 1).
func (c Config) Accum() int {
	if c.GradAccum < 1 {
		return 1
	}
	return c.GradAccum
}

// Depth returns the effective interleave subgroup count (InterleaveDepth
// with the zero value meaning 4, the Deep Optimizer States default).
func (c Config) Depth() int {
	if c.InterleaveDepth < 1 {
		return 4
	}
	return c.InterleaveDepth
}

// ElemsPerPage is the parameters per update unit: one page of FP32 master
// weights.
func (c Config) ElemsPerPage() int { return c.SSD.Nand.PageSize / 4 }

// Comps is the resident pages per update unit: the master-weight page
// plus however many pages the optimizer state occupies at the configured
// precision (two FP32 moments fill two pages; 8-bit quantized moments for
// the same unit — including their fractional block-scale overhead — pack
// into one).
func (c Config) Comps() int {
	spec := c.Spec()
	stateBytes := (float64(spec.StateBytes) + spec.ScaleBytesPerParam) * float64(c.ElemsPerPage())
	pageSize := float64(c.SSD.Nand.PageSize)
	pages := int(stateBytes / pageSize)
	if float64(pages)*pageSize < stateBytes {
		pages++
	}
	return 1 + pages
}

// TotalUnits is the number of update units covering the model's state.
func (c Config) TotalUnits() int64 {
	e := int64(c.ElemsPerPage())
	return (c.Model.Params + e - 1) / e
}

// TouchedUnits is the number of units one training step actually updates:
// all of them for dense models, a sparse subset for embedding-table models
// (the per-step traffic and time scale with this, not with TotalUnits).
func (c Config) TouchedUnits() int64 {
	t := int64(float64(c.TotalUnits())*c.Model.UpdateFraction() + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

// SimUnits is the number of units actually simulated (the sample window).
func (c Config) SimUnits() int64 {
	if t := c.TouchedUnits(); t < c.MaxSimUnits {
		return t
	}
	return c.MaxSimUnits
}

// ScaleFactor extrapolates window results to one full step's touched units.
func (c Config) ScaleFactor() float64 {
	return float64(c.TouchedUnits()) / float64(c.SimUnits())
}

// GradBytesPerUnit is the gradient traffic per unit arriving from the host.
func (c Config) GradBytesPerUnit() int64 {
	return int64(c.ElemsPerPage()) * int64(c.Spec().GradBytes)
}

// WeightOutBytesPerUnit is the working-precision weight traffic per unit
// returned to the host.
func (c Config) WeightOutBytesPerUnit() int64 {
	return int64(c.ElemsPerPage()) * int64(c.Spec().WeightOutBytes)
}

// StateBytes is the byte-exact analytic footprint of the resident
// optimizer state, Model.Params × Spec().ResidentBytes(): what a
// checkpoint moves and what every optimizer step programs (times WAF).
func (c Config) StateBytes() int64 {
	return int64(float64(c.Model.Params) * c.Spec().ResidentBytes())
}

// ResidentBytesPerUnit is the in-storage footprint per unit. It is
// page-rounded (Comps whole NAND pages) — intentionally larger than the
// per-unit share of the byte-exact StateBytes, because a page is the
// smallest unit NAND can read or program: internal fragmentation is real
// capacity and real traffic. The invariant registry
// pins the direction of the gap (analytic ≤ page-rounded) so the two
// accountings can never silently invert.
func (c Config) ResidentBytesPerUnit() int64 {
	return int64(c.Comps()) * int64(c.SSD.Nand.PageSize)
}
