package odp

import (
	"testing"

	"repro/internal/approx"
	"testing/quick"

	"repro/internal/sim"
)

func TestCyclesFor(t *testing.T) {
	p := Params{ClockMHz: 400, Lanes: 8, BufferKB: 64}
	if c := p.CyclesFor(8, 1); c != 1 {
		t.Fatalf("8 elems × 1 flop on 8 lanes = %d cycles, want 1", c)
	}
	if c := p.CyclesFor(9, 1); c != 2 {
		t.Fatalf("9 elems: %d cycles, want 2 (ceil)", c)
	}
	if c := p.CyclesFor(4096, 13); c != (4096*13+7)/8 {
		t.Fatalf("adam page: %d cycles", c)
	}
}

func TestComputeTime(t *testing.T) {
	p := Params{ClockMHz: 1000, Lanes: 1, BufferKB: 1} // 1 cycle = 1ns
	if got := p.ComputeTime(100, 1); got != 100 {
		t.Fatalf("100 cycles at 1GHz = %v, want 100ns", got)
	}
	p400 := Params{ClockMHz: 400, Lanes: 8, BufferKB: 64}
	// 4096 elems × 13 flops / 8 lanes = 6656 cycles at 2.5ns = 16640ns.
	if got := p400.ComputeTime(4096, 13); got != 16640 {
		t.Fatalf("adam page compute = %v, want 16640ns", got)
	}
	if p.ComputeTime(0, 1) != 0 {
		t.Fatal("zero elements should take zero time")
	}
}

func TestThroughput(t *testing.T) {
	p := DefaultParams() // 400MHz × 8 lanes
	// 13-flop Adam kernel: 400e6·8/13 ≈ 246M elems/s.
	got := p.ThroughputElemsPerSec(13)
	want := 400e6 * 8 / 13
	if !approx.Equal(got, want) {
		t.Fatalf("throughput = %v, want %v", got, want)
	}
	if !approx.Equal(p.ThroughputElemsPerSec(0), 0) {
		t.Fatal("zero-flop kernel throughput should be 0")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Params{
		{ClockMHz: 0, Lanes: 8, BufferKB: 64},
		{ClockMHz: 400, Lanes: 0, BufferKB: 64},
		{ClockMHz: 400, Lanes: 8, BufferKB: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func TestUnitSerializes(t *testing.T) {
	e := sim.NewEngine()
	u := NewUnit(e, "die0", Params{ClockMHz: 1000, Lanes: 1, BufferKB: 1})
	var ends []sim.Time
	u.Exec(100, 1, func() { ends = append(ends, e.Now()) })
	u.Exec(100, 1, func() { ends = append(ends, e.Now()) })
	e.Run()
	if ends[0] != 100 || ends[1] != 200 {
		t.Fatalf("ends = %v, want [100 200]", ends)
	}
	if u.Flops() != 200 {
		t.Fatalf("flops = %d, want 200", u.Flops())
	}
}

func TestUnitBadArgsPanic(t *testing.T) {
	e := sim.NewEngine()
	u := NewUnit(e, "d", DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero flopsPerElem")
		}
	}()
	u.Exec(10, 0, nil)
}

func TestNewUnitInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid params")
		}
	}()
	NewUnit(sim.NewEngine(), "bad", Params{})
}

func TestUnitUtilization(t *testing.T) {
	e := sim.NewEngine()
	u := NewUnit(e, "d", Params{ClockMHz: 1000, Lanes: 1, BufferKB: 1})
	u.Exec(50, 1, nil)
	e.Schedule(100, func() {}) // idle second half
	e.Run()
	if util := u.Utilization(); util < 0.49 || util > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", util)
	}
}

// Property: compute time scales (weakly) monotonically with work.
func TestComputeTimeMonotoneProperty(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint16, flops uint8) bool {
		fl := int(flops%20) + 1
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return p.ComputeTime(lo, fl) <= p.ComputeTime(hi, fl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	base := CostFor(DefaultParams())
	if base.AreaMM2 <= 0 || base.StaticMW <= 0 || base.DynamicPJ <= 0 {
		t.Fatalf("cost = %+v", base)
	}
	// The unit must be a small fraction of a NAND die — the design is not
	// credible otherwise.
	if base.DieAreaPct > 5 {
		t.Fatalf("ODP unit is %.1f%% of a die; design point not credible", base.DieAreaPct)
	}
	// More lanes cost more area and power.
	wide := DefaultParams()
	wide.Lanes *= 4
	wc := CostFor(wide)
	if wc.AreaMM2 <= base.AreaMM2 || wc.StaticMW <= base.StaticMW {
		t.Fatal("cost not monotone in lanes")
	}
	// Buffer grows the SRAM share.
	bigBuf := DefaultParams()
	bigBuf.BufferKB *= 2
	if CostFor(bigBuf).BufferMM2 <= base.BufferMM2 {
		t.Fatal("buffer area not monotone")
	}
	if OpEnergyPJ() <= 0 {
		t.Fatal("op energy")
	}
}

// BenchmarkUnitExec measures one kernel invocation of an on-die unit —
// Adam's 13 flops over a 16 KiB page of fp32 elements — and its
// completion event per op, after one untimed invocation warms the pool.
func BenchmarkUnitExec(b *testing.B) {
	e := sim.NewEngine()
	u := NewUnit(e, "u", DefaultParams())
	done := func() {}
	exec := func() {
		u.Exec(4096, 13, done)
		e.Run()
	}
	exec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec()
	}
	b.StopTimer()
	if got, want := u.Flops(), (uint64(b.N)+1)*4096*13; got != want {
		b.Fatalf("%d flops, want %d", got, want)
	}
}
