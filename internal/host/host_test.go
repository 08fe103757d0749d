package host

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// pcie builds a supported link, failing the test on an error.
func pcie(t *testing.T, gen, lanes int) LinkParams {
	t.Helper()
	p, err := PCIe(gen, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPCIePresets(t *testing.T) {
	g3 := pcie(t, 3, 4)
	if g3.GBps < 3.9 || g3.GBps > 4.0 {
		t.Fatalf("gen3 x4 = %v GB/s", g3.GBps)
	}
	g4 := pcie(t, 4, 4)
	if g4.GBps/g3.GBps < 1.9 || g4.GBps/g3.GBps > 2.1 {
		t.Fatal("gen4 should double gen3")
	}
	g5 := pcie(t, 5, 8)
	if g5.GBps < 31 || g5.GBps > 32 {
		t.Fatalf("gen5 x8 = %v GB/s", g5.GBps)
	}
	for _, p := range []LinkParams{g3, g4, g5} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPCIeUnknownGenIsAnError(t *testing.T) {
	for _, gen := range []int{2, 9} {
		p, err := PCIe(gen, 4)
		if err == nil {
			t.Fatalf("gen %d priced as %+v", gen, p)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(gen)) || !strings.Contains(msg, "3, 4, 5") {
			t.Errorf("gen %d: error %q does not name it and the supported generations", gen, msg)
		}
	}
}

func TestLinkTransferTime(t *testing.T) {
	p := pcie(t, 3, 4) // 3.94 GB/s × 0.85 ≈ 3.35 GB/s
	// 1 GB should take ~0.299 s.
	got := p.TransferTime(1e9)
	if got < 290*sim.Millisecond || got > 310*sim.Millisecond {
		t.Fatalf("1GB transfer = %v", got)
	}
	if p.TransferTime(0) != 0 {
		t.Fatal("zero transfer")
	}
	if p.TransferTime(1) < 1 {
		t.Fatal("positive transfer must take ≥1ns")
	}
}

func TestLinkFullDuplex(t *testing.T) {
	e := sim.NewEngine()
	p := LinkParams{Name: "l", GBps: 1, Efficiency: 1, Latency: 0}
	l := NewLink(e, p)
	var downAt, upAt sim.Time
	l.ToDevice(1000, sim.Func(func() { downAt = e.Now() }))
	l.FromDevice(1000, sim.Func(func() { upAt = e.Now() }))
	e.Run()
	// Opposite directions run in parallel: both complete at 1000ns.
	if downAt != 1000 || upAt != 1000 {
		t.Fatalf("down=%v up=%v, want both 1000ns", downAt, upAt)
	}
	if l.BytesToDevice() != 1000 || l.BytesFromDevice() != 1000 {
		t.Fatal("byte counters")
	}
	if l.Utilization() <= 0 {
		t.Fatal("utilization")
	}
}

func TestLinkSameDirectionSerializes(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, LinkParams{Name: "l", GBps: 1, Efficiency: 1, Latency: 0})
	var ends []sim.Time
	l.ToDevice(1000, sim.Func(func() { ends = append(ends, e.Now()) }))
	l.ToDevice(1000, sim.Func(func() { ends = append(ends, e.Now()) }))
	e.Run()
	if ends[0] != 1000 || ends[1] != 2000 {
		t.Fatalf("ends = %v", ends)
	}
}

func TestLinkLatencyApplied(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, LinkParams{Name: "l", GBps: 1, Efficiency: 1, Latency: 500})
	var at sim.Time
	l.ToDevice(1000, sim.Func(func() { at = e.Now() }))
	e.Run()
	if at != 1500 {
		t.Fatalf("transfer with latency = %v, want 1500", at)
	}
}

func TestGPUPresetsValid(t *testing.T) {
	if err := A100_40().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGPURoofline(t *testing.T) {
	p := A100_40()
	// Compute-bound: lots of flops, no bytes.
	if p.KernelTime(1e15, 0) != p.ComputeTime(1e15) {
		t.Fatal("compute-bound kernel")
	}
	// Memory-bound: element-wise update.
	if p.KernelTime(1, 1e12) != p.MemTime(1e12) {
		t.Fatal("memory-bound kernel")
	}
	// 1 TFLOP at 312 TFLOPS × 0.4 MFU ≈ 8ms.
	got := p.ComputeTime(1e12)
	if got < 7*sim.Millisecond || got > 9*sim.Millisecond {
		t.Fatalf("1 TFLOP = %v", got)
	}
	if p.ComputeTime(0) != 0 || p.MemTime(0) != 0 {
		t.Fatal("zero work should take zero time")
	}
}

func TestGPURunSerializes(t *testing.T) {
	e := sim.NewEngine()
	g := NewGPU(e, GPUParams{Name: "g", PeakTFLOPS: 1, MFU: 1, HBMGBps: 1, MemoryGB: 1})
	var ends []sim.Time
	g.Run(1e9, 0, sim.Func(func() { ends = append(ends, e.Now()) })) // 1ms
	g.Run(1e9, 0, sim.Func(func() { ends = append(ends, e.Now()) }))
	e.Run()
	if ends[0] != sim.Millisecond || ends[1] != 2*sim.Millisecond {
		t.Fatalf("ends = %v", ends)
	}
	_ = g.Utilization()
}

func TestCPUPresets(t *testing.T) {
	for _, p := range []CPUParams{XeonHost(), SSDController()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	// The controller must be far weaker than the host — that asymmetry is
	// what separates the CtrlISP baseline from host offload.
	if SSDController().DRAMGBps*4 > XeonHost().DRAMGBps {
		t.Fatal("controller should be much weaker than host CPU")
	}
}

func TestCPURoofline(t *testing.T) {
	p := CPUParams{Name: "c", DRAMGBps: 10, GFLOPS: 100}
	// 1 GB at 10 GB/s = 100 ms; 1 GFLOP at 100 GFLOPS = 10 ms → mem-bound.
	got := p.KernelTime(1e9, 1e9)
	if got != 100*sim.Millisecond {
		t.Fatalf("kernel = %v, want 100ms (mem-bound)", got)
	}
	// Compute-bound case.
	got = p.KernelTime(1e11, 1e6)
	if got != sim.Second {
		t.Fatalf("kernel = %v, want 1s (compute-bound)", got)
	}
}

func TestCPURun(t *testing.T) {
	e := sim.NewEngine()
	c := NewCPU(e, CPUParams{Name: "c", DRAMGBps: 1, GFLOPS: 1})
	var at sim.Time
	c.Run(0, 1000, sim.Func(func() { at = e.Now() }))
	e.Run()
	if at != 1000 {
		t.Fatalf("ran at %v", at)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	e := sim.NewEngine()
	cases := []func(){
		func() { NewLink(e, LinkParams{}) },
		func() { NewGPU(e, GPUParams{}) },
		func() { NewCPU(e, CPUParams{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid params accepted", i)
				}
			}()
			fn()
		}()
	}
}
