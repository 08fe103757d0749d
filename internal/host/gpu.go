package host

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// GPUParams is a roofline description of a training accelerator.
type GPUParams struct {
	Name string
	// PeakTFLOPS is the half-precision tensor throughput.
	PeakTFLOPS float64
	// MFU is the model FLOPs utilisation achieved on real training steps
	// (0.3–0.5 for well-tuned transformer stacks).
	MFU float64
	// HBMGBps is the device memory bandwidth.
	HBMGBps float64
	// MemoryGB is the device memory capacity, which decides whether a
	// model's optimizer state can stay GPU-resident at all.
	MemoryGB float64
}

// A100_40 returns NVIDIA A100-40GB ballpark parameters.
func A100_40() GPUParams {
	return GPUParams{Name: "A100-40GB", PeakTFLOPS: 312, MFU: 0.4, HBMGBps: 1555, MemoryGB: 40}
}

// Validate reports the first structural problem.
func (p GPUParams) Validate() error {
	if p.PeakTFLOPS <= 0 || p.MFU <= 0 || p.MFU > 1 || p.HBMGBps <= 0 || p.MemoryGB <= 0 {
		return fmt.Errorf("host: gpu params %+v", p)
	}
	return nil
}

// ComputeTime returns the time to execute the given FLOPs at sustained
// (MFU-derated) throughput.
func (p GPUParams) ComputeTime(flops float64) sim.Time {
	if flops <= 0 {
		return 0
	}
	sec := flops / (p.PeakTFLOPS * units.FLOPSPerTFLOPS * p.MFU)
	return units.Seconds(sec)
}

// MemTime returns the time to stream the given bytes through HBM.
func (p GPUParams) MemTime(bytes float64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	sec := bytes / (p.HBMGBps * units.BytesPerGB)
	return units.Seconds(sec)
}

// KernelTime is the roofline estimate: the slower of compute and memory.
func (p GPUParams) KernelTime(flops, bytes float64) sim.Time {
	c, m := p.ComputeTime(flops), p.MemTime(bytes)
	if c > m {
		return c
	}
	return m
}

// GPU is a simulated accelerator executing one kernel at a time.
type GPU struct {
	params GPUParams
	busy   *sim.Resource
}

// NewGPU builds a GPU on the engine; invalid params panic.
func NewGPU(eng *sim.Engine, p GPUParams) *GPU {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &GPU{params: p, busy: sim.NewResource(eng, p.Name, 1)}
}

// Run executes a kernel with the given roofline footprint, then fires done.
func (g *GPU) Run(flops, bytes float64, done sim.Handler) {
	g.busy.Use(g.params.KernelTime(flops, bytes), done)
}

// Utilization returns the busy fraction since simulation start.
func (g *GPU) Utilization() float64 { return g.busy.Utilization() }
