package ssd

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// Device op records. Every in-flight device operation — a host read or
// write, an internal read or update, a die transfer, a GC pass over one
// plane, a block retirement — is one pooled op record that walks through
// named stages. The record's step (its advance method, bound once when
// the record is made) is the completion callback handed to the NAND dies,
// the channel buses and the event engine, so an operation allocates
// nothing once the device's freelist is warm. A record goes back on the
// freelist before its caller's done runs; DESIGN.md "Device op records"
// has the lifecycle.

// opKind names the operation a record carries out; the stages shared by
// several kinds branch on it.
type opKind uint8

const (
	kindRead     opKind = iota // Read: external page read
	kindScan                   // ReadMapped, ScrubRead: array read only
	kindWrite                  // Write: cached host write, then its flush
	kindUpdate                 // ProgramUpdate: in-storage program
	kindTransfer               // TransferToDie, TransferFromDie
	kindGC                     // one plane's GC pass: relocate, erase, repeat
	kindRetire                 // retirement: relocate a block's residents, seal it
)

// opStage names where a record resumes when its step fires.
type opStage uint8

const (
	stageReadCmd       opStage = iota // command overhead over: serve from DRAM or the array
	stageReadHit                      // served from the DRAM write cache
	stageArrayRead                    // array read sensed: retry an injected error, else converge
	stageRetry                        // read-retry passes over: sense again (every read kind)
	stageReadOut                      // page moved out over the channel bus
	stageWriteCmd                     // command overhead over: wait for a cache slot
	stageWriteAbsorb                  // page absorbed in DRAM: ack the host, wait for plane space
	stageFlushPermit                  // plane space granted: move the page to the die
	stageFlushIn                      // page on the die: allocate and program
	stageFlushProgram                 // flush programmed: commit
	stageUpdatePermit                 // plane space granted: allocate and program
	stageUpdateProgram                // update programmed: commit
	stageTransfer                     // die transfer over the bus finished
	stageRelocRead                    // relocation source sensed: copy it unless it moved
	stageRelocProgram                 // relocation copy programmed: commit unless superseded
	stageErase                        // GC victim erased
)

// op is one in-flight device operation.
//
//simlint:pooled
type op struct {
	d    *Device
	step func() // o.advance, bound once when the record is made

	kind    opKind
	stage   opStage
	lpa     int64
	lin     int64 // linear page being sensed or programmed
	old     int64 // relocation: linear page of the resident being copied
	plane   int
	retries int // read-retry passes of the current array read
	done    func()
	at      sim.Time // Write: start of its cache-slot wait, then of its hold

	victim int     // relocation: the block being emptied
	start  int64   // relocation: the victim's first linear page
	lpas   []int64 // relocation: its residents; storage kept across reuse
	next   int     // relocation: index of the resident being moved
}

// relocates reports whether records of the kind move pages between
// blocks: those recycle through their own freelist, so the storage of
// their resident lists stays with the few records that need it.
func (k opKind) relocates() bool { return k == kindGC || k == kindRetire }

// freelist returns the freelist records of the kind recycle through.
func (d *Device) freelist(kind opKind) *[]*op {
	if kind.relocates() {
		return &d.freeRelocs
	}
	return &d.freeOps
}

// getOp takes a record off the device's freelist, or makes one.
//
//simlint:hotpath
func (d *Device) getOp(kind opKind) *op {
	var o *op
	if free := d.freelist(kind); len(*free) > 0 {
		n := len(*free)
		o = (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
	} else {
		//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
		o = &op{d: d}
		// Binding the method value allocates, once per record.
		o.step = o.advance
	}
	o.kind = kind
	return o
}

// putOp returns a record to its freelist. The handle is dead afterwards.
//
//simlint:hotpath
//simlint:release
func (d *Device) putOp(o *op) {
	o.done = nil
	o.retries = 0
	o.lpas = o.lpas[:0]
	free := d.freelist(o.kind)
	//simlint:allow hotalloc amortized freelist growth; steady state reuses storage
	*free = append(*free, o)
}

// finish completes an operation that ends with its caller's callback:
// the record is recycled first, so a callback that issues new I/O reuses
// it.
func (d *Device) finish(o *op) {
	done := o.done
	d.putOp(o)
	d.opDone()
	if done != nil {
		done()
	}
}

// advance runs the record's current stage.
//
//simlint:hotpath
func (o *op) advance() {
	d := o.d
	switch o.stage {
	case stageReadCmd:
		// Cache-resident dirty data is served from DRAM — the freshest copy
		// is not on NAND yet.
		if d.dirty[o.lpa] > 0 {
			o.stage = stageReadHit
			d.eng.Schedule(d.cfg.DRAMPageLatency, o.step)
			return
		}
		o.lin = d.ftl.lookupLinear(o.lpa)
		if o.lin == unmapped {
			//simlint:allow hotalloc cold panic path; formatting happens only on a harness bug
			panic(fmt.Sprintf("ssd: read of unmapped lpa %d", o.lpa))
		}
		d.arrayRead(o)
	case stageReadHit:
		d.cacheHits++
		d.hostReads++
		d.finish(o)
	case stageArrayRead:
		// Injected uncorrectable errors cost readRetryFactor × tR of plane
		// time each, then the page is sensed again (in case more errors
		// were injected meanwhile).
		if d.injectedReadErrs[o.lpa] > 0 {
			d.injectedReadErrs[o.lpa]--
			d.recoveredErrors++
			o.retries++
			o.stage = stageRetry
			p := d.ftl.dec.ppa(o.lin)
			d.Die(p.Channel, p.Die).Occupy(p.Addr, readRetryFactor*d.cfg.Nand.ReadLatency, o.step)
			return
		}
		d.onReadDone(o.lin, o.retries)
		if o.kind != kindRead {
			d.finish(o)
			return
		}
		o.stage = stageReadOut
		ch, die, _ := d.PlaneLoc(d.ftl.dec.plane(o.lin))
		d.channels[ch].TransferOut(die, d.geo.PageSize, o.step)
	case stageRetry:
		d.arrayRead(o)
	case stageReadOut:
		d.hostReads++
		d.finish(o)
	case stageWriteCmd:
		d.takeCacheSlot(o)
	case stageWriteAbsorb:
		d.dirty[o.lpa]++
		done := o.done
		o.done = nil
		if done != nil {
			done()
		}
		o.plane = d.planeFor(o.lpa)
		o.stage = stageFlushPermit
		d.whenWritable(o.plane, o.step)
	case stageFlushPermit:
		ch, die, _ := d.PlaneLoc(o.plane)
		o.stage = stageFlushIn
		d.channels[ch].TransferIn(die, d.geo.PageSize, o.step)
	case stageFlushIn:
		d.program(o, stageFlushProgram)
	case stageFlushProgram:
		lpa, plane := o.lpa, o.plane
		d.ftl.endProgram(plane, o.lin)
		// Commit before clearing dirty so a read never sees a window where
		// the page is neither cached nor mapped.
		d.commit(lpa, o.lin, false)
		d.hostWrites++
		if d.dirty[lpa] > 1 {
			d.dirty[lpa]--
		} else {
			delete(d.dirty, lpa)
		}
		d.boundary(BoundaryHostWrite, lpa)
		d.freeCacheSlot(o)
		d.putOp(o)
		d.maybeGC(plane)
		d.opDone()
	case stageUpdatePermit:
		d.program(o, stageUpdateProgram)
	case stageUpdateProgram:
		lpa, plane, done := o.lpa, o.plane, o.done
		d.ftl.endProgram(plane, o.lin)
		d.commit(lpa, o.lin, false)
		d.putOp(o)
		d.updateWrites++
		d.boundary(BoundaryUpdate, lpa)
		d.maybeGC(plane)
		d.opDone()
		if done != nil {
			done()
		}
	case stageTransfer:
		d.finish(o)
	case stageRelocRead:
		// Re-check: the mapping may have moved while the read was queued.
		if d.ftl.lookupLinear(o.lpas[o.next]) != o.old {
			o.next++
			d.relocateNext(o)
			return
		}
		stream := HotStream
		if d.cfg.HotColdSeparation {
			stream = ColdStream
		}
		o.lin = d.ftl.allocPage(o.plane, stream)
		d.ftl.beginProgram(o.plane, o.lin)
		o.stage = stageRelocProgram
		d.programDie(o)
	case stageRelocProgram:
		lpa := o.lpas[o.next]
		d.ftl.endProgram(o.plane, o.lin)
		if d.ftl.lookupLinear(lpa) == o.old {
			d.commit(lpa, o.lin, true)
			d.gcRelocations++
			d.boundary(BoundaryGC, lpa)
		} else {
			d.gcStale++
			d.boundary(BoundaryGCStale, lpa)
		}
		o.next++
		d.relocateNext(o)
	case stageErase:
		d.ftl.OnErased(o.plane, o.victim)
		d.gcErases++
		d.boundary(BoundaryErase, -1)
		d.drainPending(o.plane)
		d.gcStep(o)
	}
}

// arrayRead senses o.lin for o.lpa; the result lands in stageArrayRead.
func (d *Device) arrayRead(o *op) {
	o.stage = stageArrayRead
	p := d.ftl.dec.ppa(o.lin)
	d.Die(p.Channel, p.Die).Read(p.Addr, o.step)
}

// programDie programs o.lin on its die.
func (d *Device) programDie(o *op) {
	p := d.ftl.dec.ppa(o.lin)
	d.Die(p.Channel, p.Die).Program(p.Addr, o.step)
}

// program allocates the next hot-stream page of o.plane — the permit o
// held transfers to this allocation — and programs it; the mapping
// commits when the program completes, in stage next. Allocation and
// program are adjacent to keep the plane's write pointers coherent, and
// committing at completion rather than issue is the torn-write contract:
// a crash while the program is in flight leaves the prior mapping intact
// and the partly programmed page as unmapped garbage, so the RAM L2P is
// exactly the durable map.
func (d *Device) program(o *op, next opStage) {
	o.lin = d.ftl.allocPage(o.plane, HotStream)
	d.planeInflight[o.plane]--
	d.ftl.beginProgram(o.plane, o.lin)
	o.stage = next
	d.programDie(o)
}

// relocateBlock starts moving the still-valid pages of block victim on
// o.plane, one at a time, within the plane (copyback: array read + array
// program, no bus traffic).
func (d *Device) relocateBlock(o *op, victim int) {
	o.victim = victim
	o.start = d.ftl.blockStart(o.plane, victim)
	o.lpas = d.ftl.appendValidLPAs(o.lpas[:0], o.plane, victim)
	o.next = 0
	d.relocateNext(o)
}

// relocateNext reads the next resident still on the victim, skipping
// pages rewritten (and hence invalidated in the victim) since the list
// was built. With the list exhausted, GC erases the victim and retirement
// seals the block.
//
// Relocation commits at program completion like every other write: if an
// update or trim supersedes the page while the copy is in flight, the
// commit is skipped and the target page becomes dead garbage (counted in
// GCStalePrograms) — committing anyway would resurrect trimmed data or
// roll an update back.
func (d *Device) relocateNext(o *op) {
	for ; o.next < len(o.lpas); o.next++ {
		// Still resident iff mapped into the victim's page range (unmapped
		// is negative, below every range).
		lin := d.ftl.lookupLinear(o.lpas[o.next])
		if lin < o.start || lin >= o.start+int64(d.geo.PagesPerBlock) {
			continue
		}
		o.old = lin
		o.stage = stageRelocRead
		ch, die, pl := d.PlaneLoc(o.plane)
		d.Die(ch, die).Read(nand.Addr{Plane: pl, Block: o.victim, Page: int(lin - o.start)}, o.step)
		return
	}
	if o.kind == kindGC {
		ch, die, pl := d.PlaneLoc(o.plane)
		o.stage = stageErase
		d.Die(ch, die).Erase(nand.Addr{Plane: pl, Block: o.victim}, o.step)
		return
	}
	plane, block := o.plane, o.victim
	d.putOp(o)
	d.ftl.RetireBlock(plane, block)
	d.boundary(BoundaryRetire, -1)
	d.drainPending(plane)
	d.opDone()
}
