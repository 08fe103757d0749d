package energy

import (
	"math"
	"testing"

	"repro/internal/approx"
)

func TestDefaultCostsValid(t *testing.T) {
	c := DefaultCosts()
	for i, v := range []float64{
		c.NANDReadPJPerByte, c.NANDProgramPJPerByte, c.NANDErasePJPerByte,
		c.BusPJPerByte, c.PCIePJPerByte, c.DRAMPJPerByte, c.HBMPJPerByte,
		c.ODPOpPJ, c.GPUOpPJ, c.CPUOpPJ,
	} {
		if v <= 0 {
			t.Fatalf("constant %d non-positive: %v", i, v)
		}
	}
	// Structural relations the analysis depends on:
	// programming is far costlier than reading,
	if c.NANDProgramPJPerByte < 5*c.NANDReadPJPerByte {
		t.Fatal("program should dominate read energy")
	}
	// moving a byte off-device costs more than moving it on a channel bus,
	if c.PCIePJPerByte <= c.BusPJPerByte {
		t.Fatal("PCIe should cost more than the internal bus")
	}
	// and CPU scalar ops are the costliest compute.
	if c.CPUOpPJ <= c.GPUOpPJ || c.CPUOpPJ <= c.ODPOpPJ {
		t.Fatal("CPU op should be the costliest")
	}
}

func TestEvaluate(t *testing.T) {
	c := DefaultCosts()
	b := c.Evaluate(Activity{
		NANDReadBytes: 1e12, // 1 TB at 15 pJ/B = 15 J
		ODPOps:        1e12, // at 18 pJ = 18 J
	})
	if math.Abs(b.NANDRead-15) > 1e-9 {
		t.Fatalf("read energy = %v, want 15 J", b.NANDRead)
	}
	if math.Abs(b.Compute-18) > 1e-9 {
		t.Fatalf("compute energy = %v, want 18 J", b.Compute)
	}
	if !approx.Equal(b.NANDProgram, 0) || !approx.Equal(b.PCIe, 0) {
		t.Fatal("untouched components should be zero")
	}
	if math.Abs(b.Total()-33) > 1e-9 {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestEvaluateAllComponents(t *testing.T) {
	c := DefaultCosts()
	a := Activity{
		NANDReadBytes: 1, NANDProgramBytes: 1, NANDEraseBytes: 1,
		BusBytes: 1, PCIeBytes: 1, DRAMBytes: 1, HBMBytes: 1,
		ODPOps: 1, GPUOps: 1, CPUOps: 1,
	}
	b := c.Evaluate(a)
	//simlint:allow maporder table-driven cases, each asserted independently
	for name, v := range map[string]float64{
		"NANDRead": b.NANDRead, "NANDProgram": b.NANDProgram,
		"NANDErase": b.NANDErase, "Bus": b.Bus, "PCIe": b.PCIe,
		"DRAM": b.DRAM, "HBM": b.HBM, "Compute": b.Compute,
	} {
		if v <= 0 {
			t.Errorf("component %s zero with unit activity", name)
		}
	}
}
