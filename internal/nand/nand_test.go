package nand

import (
	"math"
	"testing"

	"repro/internal/approx"
	"testing/quick"

	"repro/internal/sim"
)

func tinyParams() Params {
	p := ParamsFor(TLC)
	p.BlocksPerPlane = 8
	p.PagesPerBlock = 4
	p.PlanesPerDie = 2
	return p
}

func TestParamsPresets(t *testing.T) {
	for _, c := range []CellType{SLC, MLC, TLC, QLC} {
		p := ParamsFor(c)
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
		if p.Cell != c {
			t.Errorf("%v: cell mismatch", c)
		}
	}
	// Latency ordering: SLC fastest, QLC slowest.
	if !(ParamsFor(SLC).ProgramLatency < ParamsFor(TLC).ProgramLatency &&
		ParamsFor(TLC).ProgramLatency < ParamsFor(QLC).ProgramLatency) {
		t.Error("program latency not ordered SLC < TLC < QLC")
	}
	if !(ParamsFor(SLC).PECycles > ParamsFor(TLC).PECycles &&
		ParamsFor(TLC).PECycles > ParamsFor(QLC).PECycles) {
		t.Error("endurance not ordered SLC > TLC > QLC")
	}
}

// TestInCell checks the cell-mode rule: the cell's timing, endurance and
// pages per block come from its preset, the die's page size, planes,
// blocks, bus and suspend setting stay, and on the preset geometry the
// result is the preset itself.
func TestInCell(t *testing.T) {
	for _, c := range []CellType{SLC, MLC, TLC, QLC} {
		for _, from := range []CellType{SLC, TLC, QLC} {
			if got := ParamsFor(from).InCell(c); got != ParamsFor(c) {
				t.Errorf("ParamsFor(%v).InCell(%v) = %+v, want ParamsFor(%v)", from, c, got, c)
			}
		}
		die := ParamsFor(TLC)
		die.PageSize, die.BlocksPerPlane, die.PlanesPerDie, die.BusMBps = 8192, 64, 2, 800
		die.ReadSuspend, die.ResumeOverhead = true, 7*sim.Microsecond
		want := ParamsFor(c)
		want.PageSize, want.BlocksPerPlane, want.PlanesPerDie, want.BusMBps = 8192, 64, 2, 800
		want.ReadSuspend, want.ResumeOverhead = true, 7*sim.Microsecond
		if got := die.InCell(c); got != want {
			t.Errorf("InCell(%v) on a configured die = %+v, want %+v", c, got, want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.PageSize = 0 },
		func(p *Params) { p.PagesPerBlock = -1 },
		func(p *Params) { p.BlocksPerPlane = 0 },
		func(p *Params) { p.PlanesPerDie = 0 },
		func(p *Params) { p.ReadLatency = 0 },
		func(p *Params) { p.BusMBps = 0 },
		func(p *Params) { p.PECycles = 0 },
	}
	for i, mutate := range bad {
		p := ParamsFor(TLC)
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestTransferTime(t *testing.T) {
	p := ParamsFor(TLC) // 1200 MB/s
	// 16KiB at 1200 MB/s = 16384*1000/1200 ns ≈ 13653 ns.
	got := p.TransferTime(p.PageSize)
	if got < 13_000 || got > 14_000 {
		t.Fatalf("page transfer = %v", got)
	}
	if p.TransferTime(0) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if p.TransferTime(1) < 1 {
		t.Fatal("positive transfer must take at least 1ns")
	}
}

func TestGeometryHelpers(t *testing.T) {
	p := tinyParams()
	if p.BlockBytes() != int64(p.PageSize*4) {
		t.Fatal("BlockBytes")
	}
}

func TestCellTypeString(t *testing.T) {
	if SLC.String() != "SLC" || TLC.String() != "TLC" {
		t.Fatal("CellType.String")
	}
	if CellType(99).String() == "" {
		t.Fatal("unknown cell type should still render")
	}
}

func TestDieReadTiming(t *testing.T) {
	e := sim.NewEngine()
	d := NewDie(e, "d", tinyParams())
	var doneAt sim.Time
	d.Read(Addr{0, 0, 0}, sim.Func(func() { doneAt = e.Now() }))
	e.Run()
	if doneAt != tinyParams().ReadLatency {
		t.Fatalf("read done at %v, want tR=%v", doneAt, tinyParams().ReadLatency)
	}
	if d.Counts().Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestDiePlaneSerialization(t *testing.T) {
	e := sim.NewEngine()
	p := tinyParams()
	d := NewDie(e, "d", p)
	var ends []sim.Time
	// Two reads on the same plane serialize; a third on another plane overlaps.
	d.Read(Addr{0, 0, 0}, sim.Func(func() { ends = append(ends, e.Now()) }))
	d.Read(Addr{0, 1, 0}, sim.Func(func() { ends = append(ends, e.Now()) }))
	d.Read(Addr{1, 0, 0}, sim.Func(func() { ends = append(ends, e.Now()) }))
	e.Run()
	tR := p.ReadLatency
	if ends[0] != tR || ends[2] != 2*tR || ends[1] != tR {
		t.Fatalf("ends = %v, want [tR, tR, 2tR] order-of-completion", ends)
	}
}

func TestDieSequentialProgramEnforced(t *testing.T) {
	e := sim.NewEngine()
	d := NewDie(e, "d", tinyParams())
	d.Program(Addr{0, 0, 0}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order program did not panic")
		}
	}()
	d.Program(Addr{0, 0, 2}, nil) // skips page 1
}

func TestDieFullBlockProgramPanics(t *testing.T) {
	e := sim.NewEngine()
	p := tinyParams()
	d := NewDie(e, "d", p)
	for pg := 0; pg < p.PagesPerBlock; pg++ {
		d.Program(Addr{0, 0, pg}, nil)
	}
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("programming a full block did not panic")
		}
	}()
	d.Program(Addr{0, 0, 0}, nil)
}

func TestDieEraseResetsWritePtr(t *testing.T) {
	e := sim.NewEngine()
	p := tinyParams()
	d := NewDie(e, "d", p)
	for pg := 0; pg < p.PagesPerBlock; pg++ {
		d.Program(Addr{0, 0, pg}, nil)
	}
	d.Erase(Addr{Plane: 0, Block: 0}, nil)
	e.Run()
	if d.WritePtr(0, 0) != 0 {
		t.Fatal("erase did not reset write pointer")
	}
	if d.EraseCount(0, 0) != 1 {
		t.Fatal("erase not counted")
	}
	// Reprogramming after erase is legal again.
	d.Program(Addr{0, 0, 0}, nil)
	e.Run()
	if d.WritePtr(0, 0) != 1 {
		t.Fatal("post-erase program did not advance pointer")
	}
}

func TestDieAddressBounds(t *testing.T) {
	e := sim.NewEngine()
	d := NewDie(e, "d", tinyParams())
	for _, a := range []Addr{
		{Plane: 2}, {Block: 99}, {Page: 99}, {Plane: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("address %v accepted", a)
				}
			}()
			d.Read(a, nil)
		}()
	}
}

func TestDieWearAggregates(t *testing.T) {
	e := sim.NewEngine()
	d := NewDie(e, "d", tinyParams())
	d.Erase(Addr{Plane: 0, Block: 0}, nil)
	d.Erase(Addr{Plane: 0, Block: 0}, nil)
	d.Erase(Addr{Plane: 1, Block: 3}, nil)
	e.Run()
	if n := totalEraseCount(d); n != 3 {
		t.Fatalf("total erase = %d", n)
	}
}

// totalEraseCount sums P/E cycles across every block of the die's
// geometry, touched or not.
func totalEraseCount(d *Die) int64 {
	var total int64
	p := d.params
	for pl := 0; pl < p.PlanesPerDie; pl++ {
		for b := 0; b < p.BlocksPerPlane; b++ {
			total += int64(d.EraseCount(pl, b))
		}
	}
	return total
}

// TestDieBlockStateGrowsWithUse pins the lazy block array: a fresh die
// holds no block state, an untouched block reads as erased-fresh, and
// each plane's array grows only to the highest block its programs,
// erases, marks and restores reach.
func TestDieBlockStateGrowsWithUse(t *testing.T) {
	e := sim.NewEngine()
	p := tinyParams()
	d := NewDie(e, "d", p)
	for i, pl := range d.planes {
		if pl.blocks != nil {
			t.Fatalf("fresh plane %d holds %d block states", i, len(pl.blocks))
		}
	}
	d.Program(Addr{Plane: 0, Block: 2, Page: 0}, nil)
	d.MarkProgrammed(Addr{Plane: 0, Block: 2, Page: 1})
	d.Erase(Addr{Plane: 1, Block: 0}, nil)
	d.RestoreBlock(1, 5, 3, 7)
	e.Run()
	if n0, n1 := len(d.planes[0].blocks), len(d.planes[1].blocks); n0 != 3 || n1 != 6 {
		t.Fatalf("planes hold %d and %d block states, want 3 and 6", n0, n1)
	}
	for _, c := range []struct{ plane, block, wp, erases int }{
		{0, 2, 2, 0}, {0, 1, 0, 0}, {0, 7, 0, 0}, {1, 0, 0, 1}, {1, 5, 3, 7}, {1, 7, 0, 0},
	} {
		if wp, er := d.WritePtr(c.plane, c.block), d.EraseCount(c.plane, c.block); wp != c.wp || er != c.erases {
			t.Errorf("block %d/%d: write pointer %d, %d erases; want %d, %d", c.plane, c.block, wp, er, c.wp, c.erases)
		}
	}
}

// planeTracks records the tracks a traced die's planes write to.
type planeTracks map[string]bool

func (p planeTracks) Span(track, _ string, _, _ sim.Time)            { p[track] = true }
func (p planeTracks) Instant(string, string, sim.Time)               {}
func (p planeTracks) Counter(track, _ string, _ sim.Time, _ float64) { p[track] = true }

// TestTracedDiePlanesAreNamed checks that a traced die's FIFO planes trace
// on "<die>/plane<i>" tracks: the name is formatted only when the engine
// traces.
func TestTracedDiePlanesAreNamed(t *testing.T) {
	e := sim.NewEngine()
	tracks := planeTracks{}
	e.SetTracer(tracks)
	d := NewDie(e, "ch0/die1", tinyParams())
	d.Program(Addr{Plane: 1, Block: 0, Page: 0}, nil)
	e.Run()
	if !tracks["ch0/die1/plane1"] {
		t.Fatalf("traced program wrote tracks %v, want ch0/die1/plane1", tracks)
	}
}

func TestChannelBusSerializes(t *testing.T) {
	e := sim.NewEngine()
	p := tinyParams()
	c := NewChannel(e, "ch0", p, 2)
	var ends []sim.Time
	// Array reads on two dies overlap, but their transfers share the bus.
	for die := 0; die < 2; die++ {
		die := die
		c.Die(die).Read(Addr{0, 0, 0}, sim.Func(func() {
			c.TransferOut(die, p.PageSize, sim.Func(func() { ends = append(ends, e.Now()) }))
		}))
	}
	e.Run()
	tR, tx := p.ReadLatency, p.TransferTime(p.PageSize)
	if ends[0] != tR+tx {
		t.Fatalf("first read at %v, want %v", ends[0], tR+tx)
	}
	if ends[1] != tR+2*tx {
		t.Fatalf("second read at %v, want %v (bus serialized)", ends[1], tR+2*tx)
	}
}

func TestChannelWritePage(t *testing.T) {
	e := sim.NewEngine()
	p := tinyParams()
	c := NewChannel(e, "ch0", p, 1)
	var doneAt sim.Time
	c.TransferIn(0, p.PageSize, sim.Func(func() {
		c.Die(0).Program(Addr{0, 0, 0}, sim.Func(func() { doneAt = e.Now() }))
	}))
	e.Run()
	want := p.TransferTime(p.PageSize) + p.ProgramLatency
	if doneAt != want {
		t.Fatalf("write done at %v, want %v", doneAt, want)
	}
	counts := c.Counts()
	if counts.Programs != 1 || counts.BytesIn != uint64(p.PageSize) {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestChannelAccessors(t *testing.T) {
	e := sim.NewEngine()
	c := NewChannel(e, "ch", tinyParams(), 3)
	if len(c.Dies()) != 3 || c.Die(1) == nil || c.Name() != "ch" {
		t.Fatal("accessors")
	}
	if u := c.BusUtilization(); !approx.Equal(u, 0) {
		t.Fatalf("fresh bus utilization = %v", u)
	}
}

func TestOpCountsAdd(t *testing.T) {
	a := OpCounts{Reads: 1, Programs: 2, Erases: 3, BytesIn: 4, BytesOut: 5}
	b := OpCounts{Reads: 10, Programs: 20, Erases: 30, BytesIn: 40, BytesOut: 50}
	a.Add(b)
	if a.Reads != 11 || a.Programs != 22 || a.Erases != 33 || a.BytesIn != 44 || a.BytesOut != 55 {
		t.Fatalf("Add: %+v", a)
	}
}

func TestWearModelMonotone(t *testing.T) {
	m := DefaultWearModel(TLC)
	prev := -1.0
	for n := 0; n <= 2*m.PECycles; n += 100 {
		r := m.RBER(n)
		if r < prev {
			t.Fatalf("RBER not monotone at %d", n)
		}
		prev = r
	}
	//simlint:allow floateq clamped input must take the identical code path
	if m.RBER(-5) != m.RBER(0) {
		t.Fatal("negative cycles not clamped")
	}
}

func TestWearModelEndOfLife(t *testing.T) {
	for _, c := range []CellType{SLC, MLC, TLC, QLC} {
		m := DefaultWearModel(c)
		if !m.Correctable(0) {
			t.Errorf("%v: fresh block uncorrectable", c)
		}
		uc := m.UsableCycles()
		if uc <= 0 || uc > 4*m.PECycles {
			t.Errorf("%v: usable cycles %d out of range", c, uc)
		}
		// Beyond the usable limit reads must be uncorrectable, unless the
		// cell type never exceeds ECC capability and hit the 4× safety cap.
		if uc < 4*m.PECycles && m.Correctable(uc+1) {
			t.Errorf("%v: correctable beyond usable cycles", c)
		}
	}
}

// usableCyclesBisect is the bisection UsableCycles once ran: the largest
// correctable n in [1, 4·PECycles], or 0. It is the oracle the closed form
// is checked against.
func usableCyclesBisect(m WearModel) int {
	lo, hi := 0, 4*m.PECycles
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.Correctable(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// TestUsableCyclesMatchesBisection checks the closed-form inversion of the
// RBER curve against the bisection over every cell, ECC strengths from
// 1e-12 (below every fresh block's RBER) to 1 (past the 4× cap), and
// several curve exponents.
func TestUsableCyclesMatchesBisection(t *testing.T) {
	for _, c := range []CellType{SLC, MLC, TLC, QLC} {
		for _, k := range []float64{1, 2, 3, 4.5} {
			for e := -12.0; e <= 0; e += 0.5 {
				m := DefaultWearModel(c)
				m.Exponent = k
				m.ECCCorrectableRBER = math.Pow(10, e)
				if got, want := m.UsableCycles(), usableCyclesBisect(m); got != want {
					t.Errorf("%v exponent %g ECC %g: UsableCycles %d, bisection %d", c, k, m.ECCCorrectableRBER, got, want)
				}
			}
		}
	}
}

func TestWearModelLifetime(t *testing.T) {
	m := DefaultWearModel(TLC)
	steps := m.LifetimeSteps(1000, 2.0)
	//simlint:allow unitconv 1000 is the writes-per-step test parameter, not a unit conversion
	want := float64(1000*m.UsableCycles()) / 2.0
	if !approx.Equal(steps, want) {
		t.Fatalf("lifetime = %v, want %v", steps, want)
	}
	if !isInf(m.LifetimeSteps(1000, 0)) {
		t.Fatal("zero erase demand should give infinite lifetime")
	}
}

func isInf(f float64) bool { return f > 1e308 }

// Property: for any in-range address sequence with erases between full
// blocks, programs never panic — i.e. the model accepts every legal
// (sequential) usage pattern.
func TestSequentialProgramAlwaysLegalProperty(t *testing.T) {
	f := func(blockSeed uint8, rounds uint8) bool {
		e := sim.NewEngine()
		p := tinyParams()
		d := NewDie(e, "d", p)
		blk := int(blockSeed) % p.BlocksPerPlane
		for r := 0; r < int(rounds%8)+1; r++ {
			for pg := 0; pg < p.PagesPerBlock; pg++ {
				d.Program(Addr{0, blk, pg}, nil)
			}
			d.Erase(Addr{Plane: 0, Block: blk}, nil)
		}
		e.Run()
		return d.WritePtr(0, blk) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Plane: 1, Block: 2, Page: 3}
	if a.String() != "pl1/blk2/pg3" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestReadSuspendPreemptsProgram(t *testing.T) {
	p := tinyParams()
	p.ReadSuspend = true
	p.ResumeOverhead = 5 * sim.Microsecond
	e := sim.NewEngine()
	d := NewDie(e, "d", p)
	var progAt, readAt sim.Time
	d.Program(Addr{0, 0, 0}, sim.Func(func() { progAt = e.Now() }))
	e.Schedule(50*sim.Microsecond, func() {
		d.Read(Addr{0, 1, 0}, sim.Func(func() { readAt = e.Now() }))
	})
	e.Run()
	// The read lands mid-program and completes after just tR.
	if want := 50*sim.Microsecond + p.ReadLatency; readAt != want {
		t.Fatalf("read at %v, want %v (suspend)", readAt, want)
	}
	// The program pays the read plus the resume overhead.
	if want := p.ProgramLatency + p.ReadLatency + p.ResumeOverhead; progAt != want {
		t.Fatalf("program at %v, want %v", progAt, want)
	}
	if d.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", d.Preemptions())
	}
}

func TestNoSuspendReadWaits(t *testing.T) {
	p := tinyParams() // suspend off
	e := sim.NewEngine()
	d := NewDie(e, "d", p)
	var readAt sim.Time
	d.Program(Addr{0, 0, 0}, nil)
	e.Schedule(50*sim.Microsecond, func() {
		d.Read(Addr{0, 1, 0}, sim.Func(func() { readAt = e.Now() }))
	})
	e.Run()
	// FIFO: the read waits for the full program.
	if want := p.ProgramLatency + p.ReadLatency; readAt != want {
		t.Fatalf("read at %v, want %v (no suspend)", readAt, want)
	}
	if d.Preemptions() != 0 {
		t.Fatal("preemptions without suspend")
	}
}

func TestValidateRejectsNegativeResume(t *testing.T) {
	p := tinyParams()
	p.ResumeOverhead = -1
	if p.Validate() == nil {
		t.Fatal("negative resume overhead accepted")
	}
}

// BenchmarkDieRead measures one page read of a die — plane occupancy for
// tR and its completion event — per op, after one untimed read warms the
// plane's request pool.
func BenchmarkDieRead(b *testing.B) {
	e := sim.NewEngine()
	d := NewDie(e, "d", ParamsFor(TLC))
	done := sim.Func(func() {})
	read := func(i int) {
		d.Read(Addr{Plane: i % d.params.PlanesPerDie, Block: i % d.params.BlocksPerPlane}, done)
		e.Run()
	}
	read(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
	b.StopTimer()
	if got := d.Counts().Reads; got != uint64(b.N)+1 {
		b.Fatalf("%d reads, want %d", got, b.N+1)
	}
}

// BenchmarkDieProgram measures one sequential page program of a die per
// op. Pages fill block after block on one plane; a block is erased,
// untimed, before the op that reprograms it.
func BenchmarkDieProgram(b *testing.B) {
	e := sim.NewEngine()
	p := ParamsFor(TLC)
	d := NewDie(e, "d", p)
	done := sim.Func(func() {})
	program := func(i int) {
		a := Addr{Block: i / p.PagesPerBlock % p.BlocksPerPlane, Page: i % p.PagesPerBlock}
		if a.Page == 0 && d.WritePtr(0, a.Block) == p.PagesPerBlock {
			b.StopTimer()
			d.Erase(a, done)
			e.Run()
			b.StartTimer()
		}
		d.Program(a, done)
		e.Run()
	}
	program(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		program(i)
	}
	b.StopTimer()
	if got := d.Counts().Programs; got != uint64(b.N)+1 {
		b.Fatalf("%d programs, want %d", got, b.N+1)
	}
}
