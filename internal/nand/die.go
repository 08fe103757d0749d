package nand

import (
	"fmt"
	"slices"

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

// plane is one independently operating plane of a die. Its server is a
// FIFO resource, held by value, or a preemptible one when read-suspend is
// enabled: then reads and Occupy take priority, and programs and erases
// can be suspended.
//
// blocks holds the state of blocks 0..len-1 and grows on the first
// Program, Erase, MarkProgrammed or RestoreBlock of a block past its end;
// every block beyond it is erased-fresh (write pointer and P/E count 0).
// A window opens a few blocks of each plane, so a device's block state
// scales with the blocks it touches, not with its geometry.
type plane struct {
	fifo   sim.Resource
	pre    *sim.Preemptible // non-nil when read-suspend is enabled
	blocks []blockState
}

// firstBlocks is the capacity of a plane's block array at its first
// growth: room for the few blocks a window opens before it regrows.
const firstBlocks = 8

// blockChunk holds the first block arrays of a device's planes,
// firstBlocks states per plane at the plane's device-linear index. The
// chunk is allocated at the first block any plane touches, and a plane
// takes its slot at its own first touch, so a fresh plane holds no block
// state and a device's planes share one allocation.
type blockChunk struct {
	planes int
	states []blockState
}

// carve returns plane i's first block array: empty, with room for
// firstBlocks states.
func (c *blockChunk) carve(i int) []blockState {
	if c.states == nil {
		//simlint:allow hotalloc once per device, at the first block any plane touches
		c.states = make([]blockState, c.planes*firstBlocks)
	}
	at := i * firstBlocks
	return c.states[at : at : at+firstBlocks]
}

// block returns the state of block b of plane i, growing the plane's
// block array to hold it. b must be inside the geometry.
func (d *Die) block(i, b int) *blockState {
	pl := &d.planes[i]
	if b >= len(pl.blocks) {
		if pl.blocks == nil {
			pl.blocks = d.first.carve(d.base + i)
		}
		// Past len the array is erased-fresh: nothing writes beyond it.
		//simlint:allow hotalloc amortized growth, once per block a run first touches
		pl.blocks = slices.Grow(pl.blocks, b+1-len(pl.blocks))[:b+1]
	}
	return &pl.blocks[b]
}

// state returns a copy of block b's state; blocks never touched read as
// erased-fresh.
func (pl *plane) state(b int) blockState {
	if b < len(pl.blocks) {
		return pl.blocks[b]
	}
	return blockState{}
}

// use occupies the plane for d, then fires done; priority work suspends a
// preemptible plane's program or erase.
func (pl *plane) use(d sim.Time, priority bool, done sim.Handler) {
	switch {
	case pl.pre == nil:
		pl.fifo.Use(d, done)
	case priority:
		pl.pre.UsePriority(d, done)
	default:
		pl.pre.Use(d, done)
	}
}

// Die models one NAND die: PlanesPerDie independently schedulable planes,
// each with its own block array. All methods are asynchronous: they return
// immediately and fire the completion handler via simulation events.
//
// Physical invariants enforced (violations panic — they indicate FTL bugs,
// not runtime conditions):
//   - pages within a block are programmed strictly in order,
//   - a full block must be erased before reprogramming,
//   - addresses must be inside the die geometry.
//
// A device's dies live in one slice and their planes in another (see
// NewChannels); a die's name is formatted from its indices when a trace
// or a panic needs it.
type Die struct {
	ch, idx int // channel and die-in-channel
	params  *Params
	planes  []plane
	first   *blockChunk // first block arrays, shared by the device's dies
	base    int         // device-linear index of plane 0, its slot in first
	counts  OpCounts
	failed  bool
}

// initPlanes builds the die's planes in place: FIFO resources, or under
// read-suspend the device's preemptible servers pres holds, plane i's at
// base+i. A FIFO plane's resource is named "<name>/plane<i>" when the
// engine traces, the only reader of the name; untraced it stays unnamed.
func (d *Die) initPlanes(eng *sim.Engine, name string, pres []sim.Preemptible) {
	traced := eng.Tracer() != nil
	for i := range d.planes {
		pl := &d.planes[i]
		switch {
		case d.params.ReadSuspend:
			pl.pre = &pres[d.base+i]
			pl.pre.Init(eng, d.params.ResumeOverhead)
		case traced:
			pl.fifo.Init(eng, fmt.Sprintf("%s/plane%d", name, i), 1)
		default:
			pl.fifo.Init(eng, "", 1)
		}
	}
}

// Name returns the diagnostic name, "ch<c>/die<d>".
func (d *Die) Name() string {
	//simlint:allow hotalloc cold: hot paths read the name only to format a panic
	return fmt.Sprintf("ch%d/die%d", d.ch, d.idx)
}

// Counts returns the accumulated operation tally.
func (d *Die) Counts() OpCounts { return d.counts }

func (d *Die) checkAddr(a Addr) *plane {
	if d.failed {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("nand: %s: operation on failed die", d.Name()))
	}
	if !a.valid(d.params) {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("nand: %s: address %v outside geometry", d.Name(), a))
	}
	return &d.planes[a.Plane]
}

// Fail marks the die as failed (chip-level defect). A failed die keeps its
// state for post-mortem inspection, but any further array operation panics
// — the controller must never issue work to a die it knows is dead.
func (d *Die) Fail() { d.failed = true }

// RestoreBlock installs a block's physical condition — write pointer and
// accumulated P/E cycles — directly, without simulating operations or
// touching the op counts. Crash-recovery rebuilds (ssd.Recover) use it to
// copy the durable media state of a crashed device into a fresh one.
func (d *Die) RestoreBlock(planeIdx, block, writePtr, eraseCount int) {
	if planeIdx < 0 || planeIdx >= len(d.planes) || block < 0 || block >= d.params.BlocksPerPlane {
		panic(fmt.Sprintf("nand: %s: restore of block %d/%d outside geometry", d.Name(), planeIdx, block))
	}
	if writePtr < 0 || writePtr > d.params.PagesPerBlock || eraseCount < 0 {
		panic(fmt.Sprintf("nand: %s: restore block %d/%d writePtr=%d erases=%d",
			d.Name(), planeIdx, block, writePtr, eraseCount))
	}
	blk := d.block(planeIdx, block)
	blk.writePtr = writePtr
	blk.eraseCount = eraseCount
}

// Read senses page a into the plane's page register, occupying the plane
// for tR, then fires done. Reading a page that was never programmed is
// legal at this layer (the FTL forbids it); the array timing is identical.
func (d *Die) Read(a Addr, done sim.Handler) {
	pl := d.checkAddr(a)
	d.counts.Reads++
	pl.use(d.params.ReadLatency, true, done)
}

// Program writes the page register into page a, occupying the plane for
// tPROG. It enforces sequential programming and erase-before-rewrite.
func (d *Die) Program(a Addr, done sim.Handler) {
	pl := d.checkAddr(a)
	blk := d.block(a.Plane, a.Block)
	if a.Page != blk.writePtr {
		panic(fmt.Sprintf("nand: %s: program %v but write pointer at page %d", //simlint:allow hotalloc cold panic path; formatting happens only on a model bug
			d.Name(), a, blk.writePtr))
	}
	if blk.writePtr >= d.params.PagesPerBlock {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("nand: %s: program into full block %v", d.Name(), a))
	}
	blk.writePtr++
	d.counts.Programs++
	pl.use(d.params.ProgramLatency, false, done)
}

// Occupy holds a.Plane busy for an arbitrary duration — used by the
// controller to model recovery procedures (read-retry, soft-decode passes)
// that consume plane time without being ordinary array operations.
func (d *Die) Occupy(a Addr, dur sim.Time, done sim.Handler) {
	pl := d.checkAddr(a)
	pl.use(dur, true, done)
}

// MarkProgrammed advances a block's write pointer without simulating the
// operation (no plane time, no wear, no energy). It installs
// pre-conditioned content at time zero and enforces the same sequential-
// programming invariant as Program.
func (d *Die) MarkProgrammed(a Addr) {
	d.checkAddr(a)
	blk := d.block(a.Plane, a.Block)
	if a.Page != blk.writePtr || blk.writePtr >= d.params.PagesPerBlock {
		panic(fmt.Sprintf("nand: %s: mark-programmed %v but write pointer at page %d",
			d.Name(), a, blk.writePtr))
	}
	blk.writePtr++
}

// Erase resets block a.Block on a.Plane, occupying the plane for tBERS and
// incrementing the block's program/erase cycle count.
func (d *Die) Erase(a Addr, done sim.Handler) {
	pl := d.checkAddr(Addr{Plane: a.Plane, Block: a.Block})
	blk := d.block(a.Plane, a.Block)
	blk.writePtr = 0
	blk.eraseCount++
	d.counts.Erases++
	pl.use(d.params.EraseLatency, false, done)
}

// WritePtr returns the next programmable page index of a block.
func (d *Die) WritePtr(planeIdx, block int) int {
	return d.planes[planeIdx].state(block).writePtr
}

// EraseCount returns the accumulated P/E cycles of a block.
func (d *Die) EraseCount(planeIdx, block int) int {
	return d.planes[planeIdx].state(block).eraseCount
}

// Preemptions returns the total program/erase suspends across all planes
// (zero when read-suspend is disabled).
func (d *Die) Preemptions() uint64 {
	var total uint64
	for i := range d.planes {
		if pre := d.planes[i].pre; pre != nil {
			total += pre.Preemptions()
		}
	}
	return total
}

// addBytesIn/addBytesOut are called by Channel transfers targeting this die.
func (d *Die) addBytesIn(n int)  { d.counts.BytesIn += uint64(n) }
func (d *Die) addBytesOut(n int) { d.counts.BytesOut += uint64(n) }
