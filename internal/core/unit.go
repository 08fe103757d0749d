package core

import (
	"repro/internal/layout"
	"repro/internal/odp"
	"repro/internal/sim"
)

// Unit records. Every in-flight update unit is one pooled unit record
// that walks through named stages; a leg that takes its own route (a
// mis-laid-out component on OptimStore, every component on CtrlISP,
// OptimStore's gradient share) gets a child component record, and the
// host-offload pipelines gather units into pooled batch records. A record
// is itself the completion handler it hands to the device, the
// executors, the link and gradient futures (its Fire runs the current
// stage), so a unit allocates nothing once the rig's freelists are warm.
// A stage that fans out counts its completions in pending; the last one
// runs the stage's continuation. DESIGN.md "Unit records" has the
// lifecycle.

// unitStage names where a unit record resumes when it fires.
type unitStage uint8

const (
	// OptimStore.
	uRead       unitStage = iota // first read pass: a component is in its page register
	uKernelHalf                  // LAMB pass 1 done: send the partial norms to the controller
	uReduceOut                   // norms at the controller: return the trust ratio
	uReduceIn                    // trust ratio on the die: read the pages again
	uReread                      // second read pass: a component is in its page register
	uKernel                      // last kernel pass done: program the updated pages
	uProgram                     // a component's updated page is programmed
	uWriteback                   // working-precision weights are off the die
	// CtrlISP.
	uPull       // the gradient chunk or a component reached the controller
	uCtrlKernel // controller kernel done: push the pages back
	uPush       // a component was pushed to its die and programmed
	// HostOffload, InterleavedOffload.
	uFetch // a component was read out to the host
	uStore // a component was written back
)

// unit is one in-flight update unit.
//
//simlint:pooled
type unit struct {
	r *rig

	idx     int64
	place   layout.Placement // Planes storage kept across reuse
	odp     *odp.Unit        // OptimStore: the home die's processing unit
	stage   unitStage
	pending int      // completions the current fan-out still waits for
	join    int      // OptimStore: first read pass and gradient, one each
	start   sim.Time // start of the current phase, for its span
}

// compStage names where a component record resumes.
type compStage uint8

const (
	cReadSensed compStage = iota // remote page sensed: move it off its die
	cReadOut                     // page at the controller: move it to the home die
	cPullSensed                  // CtrlISP page sensed: move it to the controller
	cProgramOut                  // updated page off the home die: move it to its own die
	cProgramIn                   // updated page on its die: program it
	cDone                        // route finished: report to the unit
	cGradReady                   // OptimStore gradient chunk ready: move the unit's share to its home die
	cGradIn                      // gradient on the home die: join the first read pass
)

// compOp is one leg of a unit travelling its own route: a component's
// page, or OptimStore's gradient share on its way to the home die.
//
//simlint:pooled
type compOp struct {
	r       *rig
	parent  *unit
	stage   compStage
	lpa     int64
	ch, die int // where the component's page lives
}

// batchStage names where a batch record resumes.
type batchStage uint8

const (
	bFetched  batchStage = iota // states crossed the link: wait for the gradients
	bGrads                      // gradients available: run the update
	bUpdated                    // update done: send the states back
	bReturned                   // states back on the device: write every unit back
)

// batch is one host-offload batch: the units one executor call updates.
//
//simlint:pooled
type batch struct {
	r     *rig
	stage batchStage
	units []*unit // storage kept across reuse
	grads *future
	start sim.Time
}

// getUnit takes a unit record off the rig's freelist, which grows by
// slabs.
//
//simlint:hotpath
func (r *rig) getUnit() *unit {
	u := r.units.Get()
	u.r = r
	return u
}

// putUnit returns a unit record to the freelist. The handle is dead
// afterwards.
//
//simlint:hotpath
//simlint:release
func (r *rig) putUnit(u *unit) {
	r.units.Put(u)
}

// startComp sends one component of u down its own route, starting with
// stage first.
//
//simlint:hotpath
func (r *rig) startComp(u *unit, first compStage, lpa int64, ch, die int) *compOp {
	c := r.compOps.Get()
	c.r, c.parent, c.stage, c.lpa, c.ch, c.die = r, u, first, lpa, ch, die
	return c
}

// putComp returns a component record to the freelist.
//
//simlint:hotpath
//simlint:release
func (r *rig) putComp(c *compOp) {
	c.parent = nil
	r.compOps.Put(c)
}

// getBatch takes a batch record off the freelist.
//
//simlint:hotpath
func (r *rig) getBatch() *batch {
	b := r.batches.Get()
	b.r = r
	return b
}

// putBatch returns a batch record to the freelist.
//
//simlint:hotpath
//simlint:release
func (r *rig) putBatch(b *batch) {
	clear(b.units)
	b.units, b.grads = b.units[:0], nil
	r.batches.Put(b)
}

// place fills u's placement. A record's first placement takes storage
// for its components' planes from the rig's slabs, which it keeps across
// reuse.
//
//simlint:hotpath
func (r *rig) place(u *unit) {
	if u.place.Planes == nil {
		u.place.Planes = r.planes.carve(r.comps)
	}
	r.lay.Placement(u.idx, &u.place)
}

// carveSlab is how many records' storage a carver carves from one slab,
// as sim.Freelist carves records.
const carveSlab = 16

// carver hands records storage of a fixed length per run (a unit's
// planes, a batch's units) from slabs it keeps across the rig's runs, so
// storage a record keeps across reuse survives the zeroing of the
// record when the rig is released.
type carver[T any] struct {
	slabs [][]T // in carve order
	next  int   // slabs[:next] have been carved from since the last rewind
	cur   []T   // unused storage of the current slab
}

// carve returns empty storage of capacity n; n is the same for every
// call between rewinds.
//
//simlint:hotpath
func (c *carver[T]) carve(n int) []T {
	if len(c.cur) == 0 {
		c.nextSlab(n)
	}
	x := c.cur[:0:n]
	c.cur = c.cur[n:]
	return x
}

// nextSlab makes the next slab current: the one an earlier run carved
// there when it holds carveSlab records' storage, else a new one.
func (c *carver[T]) nextSlab(n int) {
	size := carveSlab * n
	if k := c.next; k == len(c.slabs) || len(c.slabs[k]) < size {
		//simlint:allow hotalloc pool growth: one slab per carveSlab records the rig has never held at once
		c.slabs = append(c.slabs[:k], make([]T, size))
	}
	c.cur = c.slabs[c.next][:size]
	c.next++
}

// rewind makes the slabs' storage free for the rig's next run.
func (c *carver[T]) rewind() {
	c.next, c.cur = 0, nil
}

// fanOut opens a stage that waits for n completions.
func (u *unit) fanOut(stage unitStage, n int) {
	u.stage, u.pending, u.start = stage, n, u.r.eng.Now()
}

// arrived counts one completion of the current fan-out and reports
// whether it was the last.
func (u *unit) arrived() bool {
	u.pending--
	if u.pending < 0 {
		panic("core: unit stage completed more often than it fanned out")
	}
	return u.pending == 0
}

// home is the die a unit's kernel runs on.
func (u *unit) home() (ch, die int) { return u.place.HomeChannel, u.place.HomeDie }

// begin starts a freshly admitted unit.
func (u *unit) begin() {
	r := u.r
	switch r.kind {
	case pipeOnDie:
		// Phase 1: gradient at the die, resident pages in page registers.
		r.place(u)
		u.odp = &r.odp[u.place.HomeChannel*r.geo.DiesPerChannel+u.place.HomeDie]
		u.join = 2
		ch, die := u.home()
		r.grads[u.idx/r.gradUnits].then(r.startComp(u, cGradReady, 0, ch, die))
		u.readAll(uRead)
	case pipeCtrl:
		// Phase 1: gradient available and every page pulled to the
		// controller (array read, then bus transfer off its die).
		r.place(u)
		u.fanOut(uPull, 1+r.comps)
		r.grads[u.idx/r.gradUnits].then(u)
		for comp := 0; comp < r.comps; comp++ {
			lpa := r.lay.LPA(u.idx, comp)
			ch, die, _ := r.dev.PlaneLoc(u.place.Planes[comp])
			r.dev.ReadMapped(lpa, r.startComp(u, cPullSensed, lpa, ch, die))
		}
	case pipeOffload:
		u.fanOut(uFetch, r.comps)
		for comp := 0; comp < r.comps; comp++ {
			r.dev.Read(r.lay.LPA(u.idx, comp), u)
		}
	}
}

// Fire runs the record's current stage.
func (u *unit) Fire() {
	r := u.r
	switch u.stage {
	case uRead:
		if u.arrived() {
			r.span("read", u.start)
			u.joined()
		}
	case uKernelHalf:
		// LAMB: the trust-ratio reduction bounces off the controller.
		r.span("kernel", u.start)
		u.stage, u.start = uReduceOut, r.eng.Now()
		ch, die := u.home()
		r.dev.TransferFromDie(ch, die, 64, u)
	case uReduceOut:
		u.stage = uReduceIn
		ch, die := u.home()
		r.dev.TransferToDie(ch, die, 64, u)
	case uReduceIn:
		r.span("lamb-reduce", u.start)
		u.readAll(uReread)
	case uReread:
		if u.arrived() {
			r.span("read", u.start)
			u.kernelPass(uKernel, r.kernel.FlopsPerElem-(r.kernel.FlopsPerElem+1)/2)
		}
	case uKernel:
		r.span("kernel", u.start)
		u.programAll()
	case uProgram:
		if u.arrived() {
			r.span("program", u.start)
			u.stage, u.start = uWriteback, r.eng.Now()
			ch, die := u.home()
			r.dev.TransferFromDie(ch, die, int(r.woutB), u)
		}
	case uWriteback:
		r.span("writeback", u.start)
		r.putUnit(u)
		r.unitDone()
	case uPull:
		if u.arrived() {
			r.span("read-pull", u.start)
			// Phase 2: controller kernel over this unit's elements.
			u.stage, u.start = uCtrlKernel, r.eng.Now()
			r.ctrl.Run(float64(r.elems)*float64(r.kernel.FlopsPerElem),
				float64(2*r.residentB+r.gradB+r.woutB), u)
		}
	case uCtrlKernel:
		r.span("ctrl-kernel", u.start)
		// Phase 3: push the updated pages back and program them.
		u.fanOut(uPush, r.comps)
		for comp := 0; comp < r.comps; comp++ {
			lpa := r.lay.LPA(u.idx, comp)
			ch, die, _ := r.dev.PlaneLoc(u.place.Planes[comp])
			r.dev.TransferToDie(ch, die, r.pageSize, r.startComp(u, cProgramIn, lpa, ch, die))
		}
	case uPush:
		if u.arrived() {
			r.span("program-push", u.start)
			r.putUnit(u)
			r.unitDone()
		}
	case uFetch:
		if u.arrived() {
			r.span(r.fetchPhase, u.start)
			r.fetched(u)
		}
	case uStore:
		if u.arrived() {
			r.span("writeback", u.start)
			r.putUnit(u)
			r.unitDone()
		}
	}
}

// joined counts in the first read pass or the gradient; the second of
// the two starts the kernel (phase 2), in one or two passes.
func (u *unit) joined() {
	u.join--
	if u.join > 0 {
		return
	}
	r := u.r
	if r.cfg.ComputeHook != nil {
		r.cfg.ComputeHook(u.idx)
	}
	if r.kernel.ReadPasses == 1 {
		u.kernelPass(uKernel, r.kernel.FlopsPerElem)
		return
	}
	// LAMB: pass 1 computes moments and norms; a trust-ratio reduction
	// bounces off the controller; pass 2 re-reads and applies.
	u.kernelPass(uKernelHalf, (r.kernel.FlopsPerElem+1)/2)
}

// kernelPass runs flopsPerElem of the kernel on the home die's ODP unit.
func (u *unit) kernelPass(next unitStage, flopsPerElem int) {
	u.stage, u.start = next, u.r.eng.Now()
	u.odp.Exec(u.r.elems, flopsPerElem, u)
}

// readAll senses every component of u into its home die's page
// registers; a mis-laid-out component travels remote die → controller →
// home die over the channel buses.
func (u *unit) readAll(stage unitStage) {
	r := u.r
	u.fanOut(stage, r.comps)
	for comp := 0; comp < r.comps; comp++ {
		lpa := r.lay.LPA(u.idx, comp)
		ch, die, _ := r.dev.PlaneLoc(u.place.Planes[comp])
		if ch == u.place.HomeChannel && die == u.place.HomeDie {
			r.dev.ReadMapped(lpa, u)
			continue
		}
		r.dev.ReadMapped(lpa, r.startComp(u, cReadSensed, lpa, ch, die))
	}
}

// programAll programs every updated page of u (phase 3); a mis-laid-out
// component travels back to its own die first.
func (u *unit) programAll() {
	r := u.r
	u.fanOut(uProgram, r.comps)
	for comp := 0; comp < r.comps; comp++ {
		lpa := r.lay.LPA(u.idx, comp)
		ch, die, _ := r.dev.PlaneLoc(u.place.Planes[comp])
		if ch == u.place.HomeChannel && die == u.place.HomeDie {
			r.dev.ProgramUpdate(lpa, u)
			continue
		}
		hch, hdie := u.home()
		r.dev.TransferFromDie(hch, hdie, r.pageSize, r.startComp(u, cProgramOut, lpa, ch, die))
	}
}

// store writes every component of u back to the device.
func (u *unit) store() {
	r := u.r
	u.fanOut(uStore, r.comps)
	for comp := 0; comp < r.comps; comp++ {
		r.dev.Write(r.lay.LPA(u.idx, comp), u)
	}
}

// Fire runs the component record's current stage.
func (c *compOp) Fire() {
	r := c.r
	switch c.stage {
	case cReadSensed:
		c.stage = cReadOut
		r.dev.TransferFromDie(c.ch, c.die, r.pageSize, c)
	case cReadOut:
		c.stage = cDone
		ch, die := c.parent.home()
		r.dev.TransferToDie(ch, die, r.pageSize, c)
	case cPullSensed:
		c.stage = cDone
		r.dev.TransferFromDie(c.ch, c.die, r.pageSize, c)
	case cProgramOut:
		c.stage = cProgramIn
		r.dev.TransferToDie(c.ch, c.die, r.pageSize, c)
	case cProgramIn:
		c.stage = cDone
		r.dev.ProgramUpdate(c.lpa, c)
	case cDone:
		u := c.parent
		r.putComp(c)
		u.Fire()
	case cGradReady:
		c.stage = cGradIn
		r.dev.TransferToDie(c.ch, c.die, int(r.gradB), c)
	case cGradIn:
		u := c.parent
		r.putComp(c)
		u.joined()
	}
}

// fetched adds a unit whose states reached the host to the batch being
// filled. Full batches flush; so does a batch when no reads remain
// outstanding — a narrow window may never fill a batch, and at the tail
// no further arrivals can complete one.
func (r *rig) fetched(u *unit) {
	if r.filling == nil {
		r.filling = r.getBatch()
	}
	b := r.filling
	if b.units == nil {
		b.units = r.members.carve(int(r.gradUnits))
	}
	//simlint:allow hotalloc a batch holds at most gradUnits units, the capacity carve gives it
	b.units = append(b.units, u)
	r.readsArrived++
	if int64(len(b.units)) < r.gradUnits && r.readsArrived != r.next {
		return
	}
	r.filling = nil
	newest := b.units[0].idx
	for _, v := range b.units {
		if v.idx > newest {
			newest = v.idx
		}
	}
	b.grads = &r.grads[newest/r.gradUnits]
	b.stage = bFetched
	r.fromDev(int64(len(b.units))*r.residentB, b)
}

// Fire runs the batch record's current stage.
func (b *batch) Fire() {
	r := b.r
	n := int64(len(b.units))
	switch b.stage {
	case bFetched:
		b.stage = bGrads
		b.grads.then(b)
	case bGrads:
		// Executor memory traffic: state read and written, gradient
		// read, weights written.
		b.stage, b.start = bUpdated, r.eng.Now()
		r.exec(float64(n)*float64(r.elems)*float64(r.kernel.FlopsPerElem),
			float64(n*(2*r.residentB+r.gradB+r.woutB)), b)
	case bUpdated:
		r.span(r.execPhase, b.start)
		b.stage = bReturned
		r.toDev(n*r.residentB, b)
	case bReturned:
		for _, u := range b.units {
			u.store()
		}
		r.putBatch(b)
	}
}
