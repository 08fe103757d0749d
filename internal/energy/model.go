// Package energy converts operation counts from the simulators into energy
// figures. Constants are literature-ballpark per-byte/per-op energies for
// ~2022 hardware; F4 reports the breakdown and the harness sweeps the
// dominant ones, so conclusions rest on ratios rather than absolute pJ.
package energy

import (
	"repro/internal/odp"
	"repro/internal/units"
)

// Costs is the per-operation energy table, in picojoules.
type Costs struct {
	// NAND media.
	NANDReadPJPerByte    float64 // array sense, per byte of page
	NANDProgramPJPerByte float64 // array program, per byte
	NANDErasePJPerByte   float64 // block erase amortised per byte
	// Interconnects.
	BusPJPerByte  float64 // ONFI channel bus
	PCIePJPerByte float64 // host link, incl. SerDes both ends
	// Memories.
	DRAMPJPerByte float64 // controller / host DRAM access
	HBMPJPerByte  float64 // GPU device memory
	// Compute.
	ODPOpPJ float64 // per scalar op in the on-die unit
	GPUOpPJ float64 // per scalar op on the GPU (amortised)
	CPUOpPJ float64 // per scalar op on a host CPU core
}

// DefaultCosts returns the baseline energy table.
func DefaultCosts() Costs {
	return Costs{
		NANDReadPJPerByte:    15,
		NANDProgramPJPerByte: 250,
		NANDErasePJPerByte:   15,
		BusPJPerByte:         6,
		PCIePJPerByte:        60,
		DRAMPJPerByte:        40,
		HBMPJPerByte:         7,
		ODPOpPJ:              float64(odp.OpEnergyPJ()),
		GPUOpPJ:              1.5,
		CPUOpPJ:              80,
	}
}

// Breakdown is the energy of one experiment, in joules, split by component.
type Breakdown struct {
	NANDRead    float64
	NANDProgram float64
	NANDErase   float64
	Bus         float64
	PCIe        float64
	DRAM        float64
	HBM         float64
	Compute     float64 // ODP + GPU + CPU kernels
}

// Total sums every component.
func (b Breakdown) Total() float64 {
	return b.NANDRead + b.NANDProgram + b.NANDErase + b.Bus + b.PCIe +
		b.DRAM + b.HBM + b.Compute
}

// pj converts picojoules to joules. Constant arithmetic is exact, so this
// is the same float64 as a literal 1e-12.
const pj = 1 / units.PJPerJ

// Accounting input counters; the caller fills what its system touched.
type Activity struct {
	NANDReadBytes    float64
	NANDProgramBytes float64
	NANDEraseBytes   float64
	BusBytes         float64
	PCIeBytes        float64
	DRAMBytes        float64
	HBMBytes         float64
	ODPOps           float64
	GPUOps           float64
	CPUOps           float64
}

// Evaluate converts activity counters into a joule breakdown.
func (c Costs) Evaluate(a Activity) Breakdown {
	return Breakdown{
		NANDRead:    a.NANDReadBytes * c.NANDReadPJPerByte * pj,
		NANDProgram: a.NANDProgramBytes * c.NANDProgramPJPerByte * pj,
		NANDErase:   a.NANDEraseBytes * c.NANDErasePJPerByte * pj,
		Bus:         a.BusBytes * c.BusPJPerByte * pj,
		PCIe:        a.PCIeBytes * c.PCIePJPerByte * pj,
		DRAM:        a.DRAMBytes * c.DRAMPJPerByte * pj,
		HBM:         a.HBMBytes * c.HBMPJPerByte * pj,
		Compute:     (a.ODPOps*c.ODPOpPJ + a.GPUOps*c.GPUOpPJ + a.CPUOps*c.CPUOpPJ) * pj,
	}
}
