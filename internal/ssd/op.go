package ssd

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// Device op records. Every in-flight device operation — a host read or
// write, an internal read or update, a die transfer — is one pooled op
// record that walks through named stages; a GC pass over one plane and a
// block retirement are one pooled reloc record each. A record is itself
// the completion handler it hands to the NAND dies, the channel buses and
// the event engine (its Fire runs the current stage), and it waits for
// cache slots or plane space in place, linked into an opQueue, so an
// operation allocates nothing once the device's freelists are warm. A
// record goes back on its freelist before its caller's done fires;
// DESIGN.md "Device op records" has the lifecycle.

// opKind names the operation a record carries out; the stages shared by
// several kinds branch on it.
type opKind uint8

const (
	kindRead     opKind = iota // Read: external page read
	kindScan                   // ReadMapped, ScrubRead: array read only
	kindWrite                  // Write: cached host write, then its flush
	kindUpdate                 // ProgramUpdate: in-storage program
	kindTransfer               // TransferToDie, TransferFromDie
)

// opStage names where a record resumes when it fires.
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
)

// op is one in-flight device operation.
//
//simlint:pooled
type op struct {
	d    *Device
	next *op // the op behind it while it waits in an opQueue

	kind    opKind
	stage   opStage
	lpa     int64
	lin     int64 // linear page being sensed or programmed
	plane   int
	retries int // read-retry passes of the current array read
	done    sim.Handler
	at      sim.Time // Write: start of its cache-slot wait, then of its hold
}

// opQueue is a queue of waiting ops in arrival order, linked from head to
// tail through their next fields: the writers waiting for space on one
// plane, or the writes waiting for a cache slot. An op waits in at most
// one queue at a time, so waiting costs no storage beyond the record.
type opQueue struct {
	head, tail *op
	n          int
}

// push links o in at the tail.
func (q *opQueue) push(o *op) {
	o.next = nil
	if q.tail == nil {
		q.head = o
	} else {
		q.tail.next = o
	}
	q.tail = o
	q.n++
}

// pop unlinks and returns the head op; the queue must be non-empty.
func (q *opQueue) pop() *op {
	o := q.head
	q.head = o.next
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	return o
}

// getOp takes a record off the device's freelist, which grows by slabs.
//
//simlint:hotpath
func (d *Device) getOp(kind opKind) *op {
	o := d.ops.Get()
	o.d, o.kind = d, kind
	return o
}

// putOp returns a record to its freelist. The handle is dead afterwards.
//
//simlint:hotpath
//simlint:release
func (d *Device) putOp(o *op) {
	o.done = nil
	o.retries = 0
	d.ops.Put(o)
}

// finish completes an operation that ends with its caller's handler:
// the record is recycled first, so a handler that issues new I/O reuses
// it.
func (d *Device) finish(o *op) {
	done := o.done
	d.putOp(o)
	d.opDone()
	if done != nil {
		done.Fire()
	}
}

// Fire runs the record's current stage.
func (o *op) Fire() {
	d := o.d
	switch o.stage {
	case stageReadCmd:
		// Cache-resident dirty data is served from DRAM — the freshest copy
		// is not on NAND yet.
		if d.dirty[o.lpa] > 0 {
			o.stage = stageReadHit
			d.eng.After(d.cfg.DRAMPageLatency, o)
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
			d.Die(p.Channel, p.Die).Occupy(p.Addr, readRetryFactor*d.cfg.Nand.ReadLatency, o)
			return
		}
		d.onReadDone(o.lin, o.retries)
		if o.kind != kindRead {
			d.finish(o)
			return
		}
		o.stage = stageReadOut
		ch, die, _ := d.PlaneLoc(d.ftl.dec.plane(o.lin))
		d.channels[ch].TransferOut(die, d.geo.PageSize, o)
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
			done.Fire()
		}
		o.plane = d.planeFor(o.lpa)
		o.stage = stageFlushPermit
		d.whenWritable(o)
	case stageFlushPermit:
		ch, die, _ := d.PlaneLoc(o.plane)
		o.stage = stageFlushIn
		d.channels[ch].TransferIn(die, d.geo.PageSize, o)
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
			done.Fire()
		}
	case stageTransfer:
		d.finish(o)
	}
}

// arrayRead senses o.lin for o.lpa; the result lands in stageArrayRead.
func (d *Device) arrayRead(o *op) {
	o.stage = stageArrayRead
	p := d.ftl.dec.ppa(o.lin)
	d.Die(p.Channel, p.Die).Read(p.Addr, o)
}

// programDie programs the linear page lin on its die; h fires when the
// program completes.
func (d *Device) programDie(lin int64, h sim.Handler) {
	p := d.ftl.dec.ppa(lin)
	d.Die(p.Channel, p.Die).Program(p.Addr, h)
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
	d.programDie(o.lin, o)
}

// relocStage names where a reloc record resumes when it fires.
type relocStage uint8

const (
	relocRead    relocStage = iota // relocation source sensed: copy it unless it moved
	relocProgram                   // relocation copy programmed: commit unless superseded
	relocErase                     // GC victim erased
)

// reloc is one plane's GC pass (relocate a victim's residents, erase it,
// repeat) or one block retirement (relocate the block's residents, seal
// it). Relocation records recycle through their own freelist, so the
// storage of their resident lists stays with the few records that need
// it and every other op record stays small.
//
//simlint:pooled
type reloc struct {
	d      *Device
	retire bool // a retirement: seal the emptied block instead of erasing it
	stage  relocStage
	plane  int
	victim int     // the block being emptied
	start  int64   // the victim's first linear page
	old    int64   // linear page of the resident being copied
	lin    int64   // linear page the copy is programmed to
	lpas   []int64 // the victim's residents; storage kept across reuse
	cur    int     // index of the resident being moved
}

// getReloc takes a relocation record for plane off its freelist.
func (d *Device) getReloc(plane int, retire bool) *reloc {
	r := d.relocs.Get()
	r.d, r.plane, r.retire = d, plane, retire
	return r
}

// putReloc returns a relocation record to its freelist. The handle is
// dead afterwards.
//
//simlint:release
func (d *Device) putReloc(r *reloc) {
	r.lpas = r.lpas[:0]
	d.relocs.Put(r)
}

// Fire runs the record's current stage.
func (r *reloc) Fire() {
	d := r.d
	switch r.stage {
	case relocRead:
		// Re-check: the mapping may have moved while the read was queued.
		if d.ftl.lookupLinear(r.lpas[r.cur]) != r.old {
			r.cur++
			d.relocateNext(r)
			return
		}
		stream := HotStream
		if d.cfg.HotColdSeparation {
			stream = ColdStream
		}
		r.lin = d.ftl.allocPage(r.plane, stream)
		d.ftl.beginProgram(r.plane, r.lin)
		r.stage = relocProgram
		d.programDie(r.lin, r)
	case relocProgram:
		lpa := r.lpas[r.cur]
		d.ftl.endProgram(r.plane, r.lin)
		if d.ftl.lookupLinear(lpa) == r.old {
			d.commit(lpa, r.lin, true)
			d.gcRelocations++
			d.boundary(BoundaryGC, lpa)
		} else {
			d.gcStale++
			d.boundary(BoundaryGCStale, lpa)
		}
		r.cur++
		d.relocateNext(r)
	case relocErase:
		d.ftl.OnErased(r.plane, r.victim)
		d.gcErases++
		d.boundary(BoundaryErase, -1)
		d.drainPending(r.plane)
		d.gcStep(r)
	}
}

// relocateBlock starts moving the still-valid pages of block victim on
// r.plane, one at a time, within the plane (copyback: array read + array
// program, no bus traffic).
func (d *Device) relocateBlock(r *reloc, victim int) {
	r.victim = victim
	r.start = d.ftl.blockStart(r.plane, victim)
	r.lpas = d.ftl.appendValidLPAs(r.lpas[:0], r.plane, victim)
	r.cur = 0
	d.relocateNext(r)
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
func (d *Device) relocateNext(r *reloc) {
	for ; r.cur < len(r.lpas); r.cur++ {
		// Still resident iff mapped into the victim's page range (unmapped
		// is negative, below every range).
		lin := d.ftl.lookupLinear(r.lpas[r.cur])
		if lin < r.start || lin >= r.start+int64(d.geo.PagesPerBlock) {
			continue
		}
		r.old = lin
		r.stage = relocRead
		ch, die, pl := d.PlaneLoc(r.plane)
		d.Die(ch, die).Read(nand.Addr{Plane: pl, Block: r.victim, Page: int(lin - r.start)}, r)
		return
	}
	if !r.retire {
		ch, die, pl := d.PlaneLoc(r.plane)
		r.stage = relocErase
		d.Die(ch, die).Erase(nand.Addr{Plane: pl, Block: r.victim}, r)
		return
	}
	plane, block := r.plane, r.victim
	d.putReloc(r)
	d.ftl.RetireBlock(plane, block)
	d.boundary(BoundaryRetire, -1)
	d.drainPending(plane)
	d.opDone()
}
