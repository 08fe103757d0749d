package core

// The host-offload baselines: both stream optimizer state out of the SSD,
// update it on a host executor in batches and write it back. They share
// one pipeline (the offload stages of unit.go), parameterised by the
// executor, the link verbs and the admission window.

import (
	"repro/internal/energy"
	"repro/internal/host"
)

// HostOffload is the ZeRO-Infinity-style baseline: optimizer state lives on
// the SSD, but every step the full resident state is read out over the
// channel buses and PCIe, updated by the GPU (a trivially memory-bound
// kernel), and written back. Gradients are already on the GPU, so the
// external traffic per parameter is twice the resident footprint.
type HostOffload struct {
	cfg Config
}

// NewHostOffload builds the baseline for a configuration.
func NewHostOffload(cfg Config) *HostOffload { return &HostOffload{cfg: cfg} }

// Name implements System.
func (s *HostOffload) Name() string { return "hostoffload" }

// Run implements System.
func (s *HostOffload) Run() (*Report, error) {
	cfg := s.cfg
	// State placement uses the same layout machinery; the baseline is
	// insensitive to it (all pages travel anyway) but keeping it identical
	// makes comparisons apples-to-apples.
	run, err := newRig(cfg, pipeOffload)
	if err != nil {
		return nil, err
	}
	gpu := host.NewGPU(run.eng, cfg.GPU)
	// GPU work batches several units per kernel launch, as a real fused
	// optimizer kernel would. Layer-wise overlap: the kernel for a batch
	// needs that batch's gradients, which the backward pass produces over
	// time; state reads from the SSD are gradient-independent and overlap
	// freely.
	run.offload(gpu.Run, run.link.FromDevice, run.link.ToDevice, "read", "gpu-batch")
	run.inflightCap = run.planeWindow()
	if err := run.simulate(s.Name()); err != nil {
		return nil, err
	}

	totalUnits := cfg.TouchedUnits()
	r := run.report(s.Name())
	r.PCIeBytes = 2 * run.residentB * totalUnits
	r.DRAMBytes = r.PCIeBytes // controller DRAM staging
	r.HBMBytes = (2*run.residentB + run.gradB + run.woutB) * totalUnits
	r.GPUUtil = gpu.Utilization()
	return run.finish(r, energy.Activity{
		GPUOps: float64(totalUnits) * float64(run.elems) * float64(run.kernel.FlopsPerElem),
	}), nil
}

// InterleavedOffload is the Deep-Optimizer-States-style baseline (Maurya
// et al.): optimizer state lives on the SSD and is updated by the host
// CPU, but instead of staging the whole step host-side, the state is
// partitioned into K subgroups (Config.InterleaveDepth) whose phases
// interleave — while subgroup i updates on the CPU, subgroup i+1
// prefetches over PCIe and subgroup i−1 writes back. Host staging memory
// therefore holds only ~3/K of the resident state, at the cost of a
// pipeline that is at most three subgroups deep: large K shrinks the
// staging footprint but throttles the transfer window.
//
// The external traffic per parameter is identical to HostOffload — twice
// the resident footprint over PCIe — so the two systems share a roofline
// floor and differ only in how close their pipelines get to it.
type InterleavedOffload struct {
	cfg Config
}

// NewInterleavedOffload builds the baseline for a configuration.
func NewInterleavedOffload(cfg Config) *InterleavedOffload { return &InterleavedOffload{cfg: cfg} }

// Name implements System.
func (s *InterleavedOffload) Name() string { return "interleaved" }

// Run implements System.
func (s *InterleavedOffload) Run() (*Report, error) {
	cfg := s.cfg
	run, err := newRig(cfg, pipeOffload)
	if err != nil {
		return nil, err
	}
	cpu := host.NewCPU(run.eng, cfg.HostCPU)
	// CPU work batches several units per kernel invocation, amortising
	// per-call overhead the way a blocked AVX update loop would. Streaming
	// DMA: subgroup transfers ride a standing descriptor ring, so segments
	// pay wire occupancy without per-DMA setup — the structural edge this
	// pipeline has over chunked offload.
	run.offload(cpu.Run, run.link.StreamFromDevice, run.link.StreamToDevice, "prefetch", "cpu-batch")
	// Admission window: the defining constraint of the interleaved design.
	// Only three subgroups may be host-resident at once (the one updating,
	// the one prefetching, the one writing back), so at most 3·⌈units/K⌉
	// units are in flight. Deeper partitioning (larger K) means less host
	// staging memory and a narrower pipeline.
	subgroup := (run.simUnits + int64(cfg.Depth()) - 1) / int64(cfg.Depth())
	run.inflightCap = 3 * subgroup
	if run.inflightCap < 4 {
		run.inflightCap = 4 // a degenerate partition still pipelines minimally
	}
	if err := run.simulate(s.Name()); err != nil {
		return nil, err
	}

	totalUnits := cfg.TouchedUnits()
	r := run.report(s.Name())
	r.PCIeBytes = 2 * run.residentB * totalUnits
	r.DRAMBytes = (2*run.residentB + run.gradB + run.woutB) * totalUnits // host update traffic
	return run.finish(r, energy.Activity{
		CPUOps: float64(totalUnits) * float64(run.elems) * float64(run.kernel.FlopsPerElem),
	}), nil
}
