package nand

import (
	"fmt"

	"repro/internal/sim"
)

// OpCounts tallies the operations a die has executed, for energy accounting
// and report verification.
type OpCounts struct {
	Reads    uint64 // page reads (tR)
	Programs uint64 // page programs (tPROG)
	Erases   uint64 // block erases
	BytesIn  uint64 // bytes moved die<-bus
	BytesOut uint64 // bytes moved die->bus
}

// Add accumulates another tally into c.
func (c *OpCounts) Add(o OpCounts) {
	c.Reads += o.Reads
	c.Programs += o.Programs
	c.Erases += o.Erases
	c.BytesIn += o.BytesIn
	c.BytesOut += o.BytesOut
}

// blockState tracks the physical condition of one block.
type blockState struct {
	writePtr   int // next programmable page (NAND programs sequentially)
	eraseCount int
}

// planeServer abstracts the plane's occupancy model: a plain FIFO resource,
// or a preemptible one when read-suspend is enabled. Reads go through
// high(); programs and erases through low().
type planeServer interface {
	low(d sim.Time, done func())
	high(d sim.Time, done func())
}

type fifoPlane struct{ r *sim.Resource }

func (f fifoPlane) low(d sim.Time, done func())  { f.r.Use(d, done) }
func (f fifoPlane) high(d sim.Time, done func()) { f.r.Use(d, done) }

type suspendPlane struct{ p *sim.Preemptible }

func (s suspendPlane) low(d sim.Time, done func())  { s.p.Use(d, done) }
func (s suspendPlane) high(d sim.Time, done func()) { s.p.UsePriority(d, done) }

// plane is one independently operating plane of a die.
type plane struct {
	busy   planeServer
	pre    *sim.Preemptible // non-nil when read-suspend is enabled
	blocks []blockState
}

// Die models one NAND die: PlanesPerDie independently schedulable planes,
// each with its own block array. All methods are asynchronous: they return
// immediately and invoke the completion callback via simulation events.
//
// Physical invariants enforced (violations panic — they indicate FTL bugs,
// not runtime conditions):
//   - pages within a block are programmed strictly in order,
//   - a full block must be erased before reprogramming,
//   - addresses must be inside the die geometry.
type Die struct {
	eng    *sim.Engine
	name   string
	params Params
	planes []*plane
	counts OpCounts
	failed bool
}

// NewDie builds a die with the given parameters. It panics on invalid
// parameters; construction happens once at configuration time.
func NewDie(eng *sim.Engine, name string, p Params) *Die {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	d := &Die{eng: eng, name: name, params: p}
	d.planes = make([]*plane, p.PlanesPerDie)
	for i := range d.planes {
		pl := &plane{blocks: make([]blockState, p.BlocksPerPlane)}
		planeName := fmt.Sprintf("%s/plane%d", name, i)
		if p.ReadSuspend {
			pl.pre = sim.NewPreemptible(eng, planeName, p.ResumeOverhead)
			pl.busy = suspendPlane{pl.pre}
		} else {
			pl.busy = fifoPlane{sim.NewResource(eng, planeName, 1)}
		}
		d.planes[i] = pl
	}
	return d
}

// Name returns the diagnostic name.
func (d *Die) Name() string { return d.name }

// Params returns the die parameters.
func (d *Die) Params() Params { return d.params }

// Counts returns the accumulated operation tally.
func (d *Die) Counts() OpCounts { return d.counts }

func (d *Die) checkAddr(a Addr) *plane {
	if d.failed {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("nand: %s: operation on failed die", d.name))
	}
	if !a.valid(d.params) {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("nand: %s: address %v outside geometry", d.name, a))
	}
	return d.planes[a.Plane]
}

// Fail marks the die as failed (chip-level defect). A failed die keeps its
// state for post-mortem inspection, but any further array operation panics
// — the controller must never issue work to a die it knows is dead.
func (d *Die) Fail() { d.failed = true }

// Failed reports whether the die has been marked failed.
func (d *Die) Failed() bool { return d.failed }

// RestoreBlock installs a block's physical condition — write pointer and
// accumulated P/E cycles — directly, without simulating operations or
// touching the op counts. Crash-recovery rebuilds (ssd.Recover) use it to
// copy the durable media state of a crashed device into a fresh one.
func (d *Die) RestoreBlock(planeIdx, block, writePtr, eraseCount int) {
	if planeIdx < 0 || planeIdx >= len(d.planes) || block < 0 || block >= d.params.BlocksPerPlane {
		panic(fmt.Sprintf("nand: %s: restore of block %d/%d outside geometry", d.name, planeIdx, block))
	}
	if writePtr < 0 || writePtr > d.params.PagesPerBlock || eraseCount < 0 {
		panic(fmt.Sprintf("nand: %s: restore block %d/%d writePtr=%d erases=%d",
			d.name, planeIdx, block, writePtr, eraseCount))
	}
	blk := &d.planes[planeIdx].blocks[block]
	blk.writePtr = writePtr
	blk.eraseCount = eraseCount
}

// Read senses page a into the plane's page register, occupying the plane
// for tR, then calls done. Reading a page that was never programmed is
// legal at this layer (the FTL forbids it); the array timing is identical.
func (d *Die) Read(a Addr, done func()) {
	pl := d.checkAddr(a)
	d.counts.Reads++
	pl.busy.high(d.params.ReadLatency, done)
}

// Program writes the page register into page a, occupying the plane for
// tPROG. It enforces sequential programming and erase-before-rewrite.
func (d *Die) Program(a Addr, done func()) {
	pl := d.checkAddr(a)
	blk := &pl.blocks[a.Block]
	if a.Page != blk.writePtr {
		panic(fmt.Sprintf("nand: %s: program %v but write pointer at page %d", //simlint:allow hotalloc cold panic path; formatting happens only on a model bug
			d.name, a, blk.writePtr))
	}
	if blk.writePtr >= d.params.PagesPerBlock {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("nand: %s: program into full block %v", d.name, a))
	}
	blk.writePtr++
	d.counts.Programs++
	pl.busy.low(d.params.ProgramLatency, done)
}

// Occupy holds a.Plane busy for an arbitrary duration — used by the
// controller to model recovery procedures (read-retry, soft-decode passes)
// that consume plane time without being ordinary array operations.
func (d *Die) Occupy(a Addr, dur sim.Time, done func()) {
	pl := d.checkAddr(a)
	pl.busy.high(dur, done)
}

// MarkProgrammed advances a block's write pointer without simulating the
// operation (no plane time, no wear, no energy). It installs
// pre-conditioned content at time zero and enforces the same sequential-
// programming invariant as Program.
func (d *Die) MarkProgrammed(a Addr) {
	pl := d.checkAddr(a)
	blk := &pl.blocks[a.Block]
	if a.Page != blk.writePtr || blk.writePtr >= d.params.PagesPerBlock {
		panic(fmt.Sprintf("nand: %s: mark-programmed %v but write pointer at page %d",
			d.name, a, blk.writePtr))
	}
	blk.writePtr++
}

// Erase resets block a.Block on a.Plane, occupying the plane for tBERS and
// incrementing the block's program/erase cycle count.
func (d *Die) Erase(a Addr, done func()) {
	pl := d.checkAddr(Addr{Plane: a.Plane, Block: a.Block})
	blk := &pl.blocks[a.Block]
	blk.writePtr = 0
	blk.eraseCount++
	d.counts.Erases++
	pl.busy.low(d.params.EraseLatency, done)
}

// WritePtr returns the next programmable page index of a block.
func (d *Die) WritePtr(planeIdx, block int) int {
	return d.planes[planeIdx].blocks[block].writePtr
}

// EraseCount returns the accumulated P/E cycles of a block.
func (d *Die) EraseCount(planeIdx, block int) int {
	return d.planes[planeIdx].blocks[block].eraseCount
}

// MaxEraseCount returns the largest P/E count across all blocks.
func (d *Die) MaxEraseCount() int {
	max := 0
	for _, pl := range d.planes {
		for i := range pl.blocks {
			if pl.blocks[i].eraseCount > max {
				max = pl.blocks[i].eraseCount
			}
		}
	}
	return max
}

// TotalEraseCount sums P/E cycles across all blocks.
func (d *Die) TotalEraseCount() int64 {
	var total int64
	for _, pl := range d.planes {
		for i := range pl.blocks {
			total += int64(pl.blocks[i].eraseCount)
		}
	}
	return total
}

// Preemptions returns the total program/erase suspends across all planes
// (zero when read-suspend is disabled).
func (d *Die) Preemptions() uint64 {
	var total uint64
	for _, pl := range d.planes {
		if pl.pre != nil {
			total += pl.pre.Preemptions()
		}
	}
	return total
}

// addBytesIn/addBytesOut are called by Channel transfers targeting this die.
func (d *Die) addBytesIn(n int)  { d.counts.BytesIn += uint64(n) }
func (d *Die) addBytesOut(n int) { d.counts.BytesOut += uint64(n) }
