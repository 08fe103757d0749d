package host

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// CPUParams describes a host-CPU (or SSD-controller) update engine: the
// element-wise optimizer kernel on a CPU is DRAM-bandwidth bound, with a
// secondary compute ceiling.
type CPUParams struct {
	Name string
	// DRAMGBps is the sustained memory bandwidth available to the kernel.
	DRAMGBps float64
	// GFLOPS is the sustained scalar/SIMD arithmetic throughput.
	GFLOPS float64
}

// XeonHost returns a ZeRO-Offload-style host: a dual-socket server class
// CPU with ~100 GB/s effective stream bandwidth.
func XeonHost() CPUParams {
	return CPUParams{Name: "Xeon-host", DRAMGBps: 100, GFLOPS: 500}
}

// SSDController returns the embedded-controller design point used by the
// in-controller processing baseline: a few ARM cores behind LPDDR4.
func SSDController() CPUParams {
	return CPUParams{Name: "SSD-ctrl", DRAMGBps: 8, GFLOPS: 16}
}

// Validate reports the first structural problem.
func (p CPUParams) Validate() error {
	if p.DRAMGBps <= 0 || p.GFLOPS <= 0 {
		return fmt.Errorf("host: cpu params %+v", p)
	}
	return nil
}

// KernelTime is the roofline estimate for an element-wise kernel touching
// the given bytes with the given FLOPs.
func (p CPUParams) KernelTime(flops, bytes float64) sim.Time {
	mem := units.GBps(p.DRAMGBps).Bps().TransferTimeF(bytes)
	cmp := units.Nanos(flops / (p.GFLOPS * units.FLOPSPerGFLOPS) * units.NsPerSec)
	if cmp > mem {
		return cmp
	}
	return mem
}

// CPU is a simulated update engine executing one kernel at a time.
type CPU struct {
	params CPUParams
	busy   *sim.Resource
}

// NewCPU builds a CPU on the engine; invalid params panic.
func NewCPU(eng *sim.Engine, p CPUParams) *CPU {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &CPU{params: p, busy: sim.NewResource(eng, p.Name, 1)}
}

// Run executes a kernel with the given footprint, then fires done.
func (c *CPU) Run(flops, bytes float64, done sim.Handler) {
	c.busy.Use(c.params.KernelTime(flops, bytes), done)
}
