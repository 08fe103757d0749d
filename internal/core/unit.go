package core

import (
	"repro/internal/layout"
	"repro/internal/odp"
	"repro/internal/sim"
)

// Unit records. Every in-flight update unit is one pooled unit record
// that walks through named stages; a component whose pages take their
// own route (a mis-laid-out component on OptimStore, every component on
// CtrlISP) gets a child component record, and the host-offload pipelines
// gather units into pooled batch records. A record's step (its advance
// method, bound once when the record is made) is the callback handed to
// the device, the executors, the link and gradient futures, so a unit
// allocates nothing once the rig's freelists are warm. A stage that fans
// out counts its completions in pending; the last one runs the stage's
// continuation. DESIGN.md "Unit records" has the lifecycle.

// unitStage names where a unit record resumes when its step fires.
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
	r      *rig
	step   func() // u.advance, bound once when the record is made
	grad   func() // u.gradReady: OptimStore's chunk-future waiter
	gradIn func() // u.joined: the gradient reached the home die

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
)

// compOp is one component of a unit travelling its own route.
//
//simlint:pooled
type compOp struct {
	r       *rig
	step    func() // c.advance, bound once when the record is made
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
	step  func() // b.advance, bound once when the record is made
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
	if u.step == nil {
		// A fresh record: binding the method value allocates, once per
		// record.
		u.r = r
		u.step = u.advance
	}
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
	if c.step == nil {
		c.r = r
		c.step = c.advance
	}
	c.parent, c.stage, c.lpa, c.ch, c.die = u, first, lpa, ch, die
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
	if b.step == nil {
		b.r = r
		b.step = b.advance
	}
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

// placeSlab is how many records' plane storage the rig carves from one
// allocation, as sim.Freelist carves records.
const placeSlab = 16

// place fills u's placement. A record's first placement takes storage
// for its components' planes from the rig's slab, which it keeps across
// reuse.
//
//simlint:hotpath
func (r *rig) place(u *unit) {
	if u.place.Planes == nil {
		if len(r.planeSlots) == 0 {
			//simlint:allow hotalloc pool growth: one slab per placeSlab records while the pool warms up
			r.planeSlots = make([]int, placeSlab*r.comps)
		}
		u.place.Planes = r.planeSlots[:0:r.comps]
		r.planeSlots = r.planeSlots[r.comps:]
	}
	r.lay.Placement(u.idx, &u.place)
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
		if u.grad == nil {
			// Binding the method values allocates, once per record.
			u.grad, u.gradIn = u.gradReady, u.joined
		}
		u.join = 2
		r.grads[u.idx/r.gradUnits].then(u.grad)
		u.readAll(uRead)
	case pipeCtrl:
		// Phase 1: gradient available and every page pulled to the
		// controller (array read, then bus transfer off its die).
		r.place(u)
		u.fanOut(uPull, 1+r.comps)
		r.grads[u.idx/r.gradUnits].then(u.step)
		for comp := 0; comp < r.comps; comp++ {
			lpa := r.lay.LPA(u.idx, comp)
			ch, die, _ := r.dev.PlaneLoc(u.place.Planes[comp])
			r.dev.ReadMapped(lpa, r.startComp(u, cPullSensed, lpa, ch, die).step)
		}
	case pipeOffload:
		u.fanOut(uFetch, r.comps)
		for comp := 0; comp < r.comps; comp++ {
			r.dev.Read(r.lay.LPA(u.idx, comp), u.step)
		}
	}
}

// advance runs the record's current stage.
//
//simlint:hotpath
func (u *unit) advance() {
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
		r.dev.TransferFromDie(ch, die, 64, u.step)
	case uReduceOut:
		u.stage = uReduceIn
		ch, die := u.home()
		r.dev.TransferToDie(ch, die, 64, u.step)
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
			r.dev.TransferFromDie(ch, die, int(r.woutB), u.step)
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
				float64(2*r.residentB+r.gradB+r.woutB), u.step)
		}
	case uCtrlKernel:
		r.span("ctrl-kernel", u.start)
		// Phase 3: push the updated pages back and program them.
		u.fanOut(uPush, r.comps)
		for comp := 0; comp < r.comps; comp++ {
			lpa := r.lay.LPA(u.idx, comp)
			ch, die, _ := r.dev.PlaneLoc(u.place.Planes[comp])
			r.dev.TransferToDie(ch, die, r.pageSize, r.startComp(u, cProgramIn, lpa, ch, die).step)
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

// gradReady is OptimStore's gradient-chunk waiter: the unit's share
// crosses the channel bus to its home die.
func (u *unit) gradReady() {
	ch, die := u.home()
	u.r.dev.TransferToDie(ch, die, int(u.r.gradB), u.gradIn)
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
	u.odp.Exec(u.r.elems, flopsPerElem, u.step)
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
			r.dev.ReadMapped(lpa, u.step)
			continue
		}
		r.dev.ReadMapped(lpa, r.startComp(u, cReadSensed, lpa, ch, die).step)
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
			r.dev.ProgramUpdate(lpa, u.step)
			continue
		}
		hch, hdie := u.home()
		r.dev.TransferFromDie(hch, hdie, r.pageSize, r.startComp(u, cProgramOut, lpa, ch, die).step)
	}
}

// store writes every component of u back to the device.
func (u *unit) store() {
	r := u.r
	u.fanOut(uStore, r.comps)
	for comp := 0; comp < r.comps; comp++ {
		r.dev.Write(r.lay.LPA(u.idx, comp), u.step)
	}
}

// advance runs the component record's current stage.
//
//simlint:hotpath
func (c *compOp) advance() {
	r := c.r
	switch c.stage {
	case cReadSensed:
		c.stage = cReadOut
		r.dev.TransferFromDie(c.ch, c.die, r.pageSize, c.step)
	case cReadOut:
		c.stage = cDone
		ch, die := c.parent.home()
		r.dev.TransferToDie(ch, die, r.pageSize, c.step)
	case cPullSensed:
		c.stage = cDone
		r.dev.TransferFromDie(c.ch, c.die, r.pageSize, c.step)
	case cProgramOut:
		c.stage = cProgramIn
		r.dev.TransferToDie(c.ch, c.die, r.pageSize, c.step)
	case cProgramIn:
		c.stage = cDone
		r.dev.ProgramUpdate(c.lpa, c.step)
	case cDone:
		u := c.parent
		r.putComp(c)
		u.step()
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
	//simlint:allow hotalloc amortized batch growth; records keep their storage
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
	r.fromDev(int64(len(b.units))*r.residentB, b.step)
}

// advance runs the batch record's current stage.
//
//simlint:hotpath
func (b *batch) advance() {
	r := b.r
	n := int64(len(b.units))
	switch b.stage {
	case bFetched:
		b.stage = bGrads
		b.grads.then(b.step)
	case bGrads:
		// Executor memory traffic: state read and written, gradient
		// read, weights written.
		b.stage, b.start = bUpdated, r.eng.Now()
		r.exec(float64(n)*float64(r.elems)*float64(r.kernel.FlopsPerElem),
			float64(n*(2*r.residentB+r.gradB+r.woutB)), b.step)
	case bUpdated:
		r.span(r.execPhase, b.start)
		b.stage = bReturned
		r.toDev(n*r.residentB, b.step)
	case bReturned:
		for _, u := range b.units {
			u.store()
		}
		r.putBatch(b)
	}
}
