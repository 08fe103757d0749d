// Package odp models the on-die processing unit OptimStore attaches to
// each NAND die: a small SIMD engine wired to the plane page registers
// that executes element-wise optimizer kernels on page-resident data,
// so updated state is re-programmed without ever crossing the channel bus.
//
// The unit is deliberately simple — NAND periphery is fabricated in a
// coarse, logic-unfriendly process, so the paper family's design point is
// a handful of FP lanes clocked modestly. The cost model in cost.go keeps
// that honest.
package odp

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Params describes one on-die processing unit.
type Params struct {
	// ClockMHz is the unit's clock. NAND-periphery logic runs slow;
	// hundreds of MHz is the credible range.
	ClockMHz int
	// Lanes is the number of scalar FP operations retired per cycle
	// (SIMD width × issue rate).
	Lanes int
	// BufferKB is the SRAM staging buffer that holds operand pages
	// (weight + moments) while a kernel streams over them. It must fit
	// the working set of the largest kernel: spec'd at configuration time.
	BufferKB int
}

// DefaultParams returns the baseline design point: 8 lanes at 400 MHz with
// a 96 KiB buffer (five 16 KiB pages — master weight, up to three moments,
// and the incoming gradient — with one page of slack for double buffering).
func DefaultParams() Params {
	return Params{ClockMHz: 400, Lanes: 8, BufferKB: 96}
}

// Validate reports the first structural problem.
func (p Params) Validate() error {
	switch {
	case p.ClockMHz <= 0:
		return fmt.Errorf("odp: ClockMHz %d", p.ClockMHz)
	case p.Lanes <= 0:
		return fmt.Errorf("odp: Lanes %d", p.Lanes)
	case p.BufferKB <= 0:
		return fmt.Errorf("odp: BufferKB %d", p.BufferKB)
	}
	return nil
}

// CyclesFor returns the cycles to execute a kernel of flopsPerElem over
// elems elements: each lane retires one scalar op per cycle.
func (p Params) CyclesFor(elems, flopsPerElem int) int64 {
	total := int64(elems) * int64(flopsPerElem)
	return (total + int64(p.Lanes) - 1) / int64(p.Lanes)
}

// ComputeTime converts CyclesFor into simulated time.
func (p Params) ComputeTime(elems, flopsPerElem int) sim.Time {
	cycles := p.CyclesFor(elems, flopsPerElem)
	t := units.CyclesAtMHz(cycles, p.ClockMHz)
	if t < 1 && cycles > 0 {
		t = 1
	}
	return t
}

// ThroughputElemsPerSec returns the steady-state element rate for a kernel.
func (p Params) ThroughputElemsPerSec(flopsPerElem int) float64 {
	if flopsPerElem <= 0 {
		return 0
	}
	return float64(p.ClockMHz) * units.HzPerMHz * float64(p.Lanes) / float64(flopsPerElem)
}

// Unit is the per-die compute engine instance. One kernel executes at a
// time (capacity-1 resource); the die's planes keep reading/programming
// around it.
type Unit struct {
	params Params
	busy   sim.Resource
	flops  uint64
}

// NewUnits builds one unit per die of a channels × dies device in one
// slice: unit ch·dies+die computes on die (ch, die). Invalid parameters
// panic at configuration time. A unit's resource traces on
// "ch<c>/die<d>/odp"; the name is formatted only when the engine traces.
func NewUnits(eng *sim.Engine, p Params, channels, dies int) []Unit {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	traced := eng.Tracer() != nil
	us := make([]Unit, channels*dies)
	for i := range us {
		name := ""
		if traced {
			name = fmt.Sprintf("ch%d/die%d/odp", i/dies, i%dies)
		}
		us[i].params = p
		us[i].busy.Init(eng, name, 1)
	}
	return us
}

// Exec runs one element-wise kernel invocation over elems elements and
// fires done when the unit finishes. Invocations on the same unit
// serialize FIFO.
func (u *Unit) Exec(elems, flopsPerElem int, done sim.Handler) {
	if elems < 0 || flopsPerElem <= 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a caller bug
		panic(fmt.Sprintf("odp: Exec(%d elems, %d flops)", elems, flopsPerElem))
	}
	u.flops += uint64(elems) * uint64(flopsPerElem)
	u.busy.Use(u.params.ComputeTime(elems, flopsPerElem), done)
}

// Flops returns the total scalar operations executed.
func (u *Unit) Flops() uint64 { return u.flops }

// Utilization returns the busy fraction of the unit since simulation start.
func (u *Unit) Utilization() float64 { return u.busy.Utilization() }
