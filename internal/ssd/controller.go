package ssd

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/nand"
	"repro/internal/sim"
)

// Stats is a snapshot of device activity counters.
type Stats struct {
	HostReads       uint64 // external page reads completed
	HostWrites      uint64 // external page writes completed
	UpdateReads     uint64 // in-storage array reads (no bus)
	UpdateWrites    uint64 // in-storage array programs (no bus)
	GCRelocations   uint64 // valid pages moved by GC
	GCStalePrograms uint64 // relocation programs superseded before commit
	GCErases        uint64 // blocks erased by GC
	RecoveredErrors uint64 // uncorrectable reads recovered by read-retry
	ScrubReads      uint64 // internal media-health patrol reads
	CacheHits       uint64 // reads served from the DRAM write cache
	RetiredBlocks   int    // blocks permanently taken out of service
	WAF             float64
}

// Device is the SSD controller: it owns the NAND channels, the FTL, the
// DRAM write cache, and garbage collection. All I/O methods are
// asynchronous (callback on completion) and run on the shared sim.Engine.
//
// Two families of operations exist:
//
//   - the external path (Read/Write): NVMe command overhead, DRAM cache,
//     channel-bus transfers — what a host-offload baseline uses;
//   - the internal path (ReadMapped/ProgramUpdate): array-only operations
//     used by in-storage compute, which never touch the channel bus.
type Device struct {
	eng      *sim.Engine
	cfg      Config
	geo      Geometry
	channels []*nand.Channel
	ftl      *FTL

	// The DRAM write cache's slots: a write holds one from its command
	// until its flush commits (op.go); writes wait for one in order.
	cacheUsed int
	cacheWait sim.FIFO[*op]
	planeFor  func(lpa int64) int

	gcActive      []bool
	planeInflight []int              // permits issued but not yet allocated, per plane
	pending       []sim.FIFO[func()] // steps of writers waiting for reclaimable space, per plane

	// Op-record freelists (see op.go): I/O records, and the GC and
	// retirement records that keep their resident-list storage.
	freeOps, freeRelocs []*op

	// dirty counts cache-resident (not yet flushed) copies per logical
	// page: reads of these are served from DRAM.
	dirty     map[int64]int
	cacheHits uint64

	// Failure injection: pending uncorrectable-read counts per logical
	// page, consumed by read-retry recovery.
	injectedReadErrs map[int64]int
	recoveredErrors  uint64

	// retire, when non-nil, tracks per-block retry budgets and drives
	// block retirement (cfg.Retire). Nil when the policy is disabled —
	// the hot read path stays a single pointer check.
	retire     *ecc.RetireTracker
	scrubReads uint64

	// boundaryHook, when non-nil, fires after every FTL op boundary (see
	// Boundary). Nil in production runs — the crash harness installs it.
	boundaryHook func(Boundary)
	boundarySeq  uint64

	// commitHook, when set, observes every mapping commit — the data-plane
	// shadow integration tests use to verify content integrity across GC
	// and log-structured remapping. oldLin is -1 for first writes.
	commitHook func(lpa, oldLin, newLin int64, gc bool)

	outstanding  int
	drainWaiters []func()
	// wedged is set when a plane's writers can never get space (gc.go).
	wedged error

	hostReads, hostWrites     uint64
	updateReads, updateWrites uint64
	gcRelocations, gcErases   uint64
	gcStale                   uint64
}

// NewDevice builds a device; invalid configuration panics at construction.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	geo := cfg.Geometry()
	d := &Device{
		eng:           eng,
		cfg:           cfg,
		geo:           geo,
		ftl:           NewFTL(geo, cfg.LogicalPages()),
		gcActive:      make([]bool, geo.Planes()),
		planeInflight: make([]int, geo.Planes()),
		pending:       make([]sim.FIFO[func()], geo.Planes()),
		dirty:         make(map[int64]int),
	}
	d.planeFor = func(lpa int64) int { return int(lpa % int64(geo.Planes())) }
	if cfg.Retire.Enabled() {
		d.retire = ecc.NewRetireTracker(cfg.Retire)
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		d.channels = append(d.channels,
			nand.NewChannel(eng, fmt.Sprintf("ch%d", ch), cfg.Nand, cfg.DiesPerChannel))
	}
	return d
}

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// FTL exposes the translation layer (read-only use expected).
func (d *Device) FTL() *FTL { return d.ftl }

// Channel returns channel ch.
func (d *Device) Channel(ch int) *nand.Channel { return d.channels[ch] }

// Die returns the die at (ch, die).
func (d *Device) Die(ch, die int) *nand.Die { return d.channels[ch].Die(die) }

// SetCommitHook installs an observer invoked synchronously at every
// mapping commit (host write, in-storage update, GC relocation, preload).
// Tests use it to mirror page contents across physical moves.
func (d *Device) SetCommitHook(fn func(lpa, oldLin, newLin int64, gc bool)) {
	d.commitHook = fn
}

// commit binds lpa to the linear page lin and notifies the hook, if one
// is installed, with the displaced physical page.
func (d *Device) commit(lpa, lin int64, gc bool) {
	if d.commitHook == nil {
		d.ftl.commit(lpa, lin, gc)
		return
	}
	oldLin := d.ftl.lookupLinear(lpa)
	d.ftl.commit(lpa, lin, gc)
	d.commitHook(lpa, oldLin, lin, gc)
}

// SetPlaneMapper replaces the logical-page → plane placement function used
// for first writes (the layout engine provides these). Existing mappings
// are unaffected; pages stay in their plane across updates.
func (d *Device) SetPlaneMapper(fn func(lpa int64) int) { d.planeFor = fn }

// PlaneOf returns the plane a logical page is (or would be) placed on.
func (d *Device) PlaneOf(lpa int64) int {
	if lin := d.ftl.lookupLinear(lpa); lin != unmapped {
		return d.ftl.dec.plane(lin)
	}
	return d.planeFor(lpa)
}

// PlaneLoc returns the (channel, die, plane-in-die) of a device-global
// plane, as Geometry.PlaneLoc does, from a table built with the device.
//
//simlint:hotpath
func (d *Device) PlaneLoc(plane int) (ch, die, pl int) {
	l := d.ftl.dec.planes[plane]
	return l.ch, l.die, l.plane
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		HostReads:       d.hostReads,
		HostWrites:      d.hostWrites,
		UpdateReads:     d.updateReads,
		UpdateWrites:    d.updateWrites,
		GCRelocations:   d.gcRelocations,
		GCStalePrograms: d.gcStale,
		GCErases:        d.gcErases,
		RecoveredErrors: d.recoveredErrors,
		ScrubReads:      d.scrubReads,
		CacheHits:       d.cacheHits,
		RetiredBlocks:   d.ftl.RetiredBlocks(),
		WAF:             d.ftl.WAF(),
	}
}

// MaxEraseCount returns the highest per-block P/E count on the device.
func (d *Device) MaxEraseCount() int {
	max := 0
	for _, ch := range d.channels {
		for _, die := range ch.Dies() {
			if n := die.MaxEraseCount(); n > max {
				max = n
			}
		}
	}
	return max
}

// Counts aggregates NAND operation tallies across all dies.
func (d *Device) Counts() nand.OpCounts {
	var total nand.OpCounts
	for _, ch := range d.channels {
		total.Add(ch.Counts())
	}
	return total
}

func (d *Device) opStart() { d.outstanding++ }

func (d *Device) opDone() {
	d.outstanding--
	if d.outstanding < 0 {
		panic("ssd: outstanding below zero")
	}
	if d.outstanding == 0 {
		waiters := d.drainWaiters
		d.drainWaiters = nil
		for _, w := range waiters {
			w()
		}
	}
}

// Drain invokes done once every outstanding operation (including GC)
// completes.
func (d *Device) Drain(done func()) {
	if d.outstanding == 0 {
		done()
		return
	}
	//simlint:allow hotalloc a run drains once, after its last unit
	d.drainWaiters = append(d.drainWaiters, done)
}

// Wedged returns the error of the first plane that wedged, or nil.
func (d *Device) Wedged() error { return d.wedged }

// RunDrained runs the engine until every outstanding operation completes.
// A run that ends first returns the wedged plane's error, or one naming
// the operations left outstanding.
func (d *Device) RunDrained() error {
	drained := false
	d.Drain(func() { drained = true })
	d.eng.Run()
	switch {
	case drained:
		return nil
	case d.wedged != nil:
		return d.wedged
	}
	return fmt.Errorf("ssd: device did not drain: %d operations outstanding", d.outstanding)
}

// Preload installs a mapping for lpa without consuming simulated time,
// modelling a pre-conditioned drive. Used by harnesses to set up steady
// state before measurement.
func (d *Device) Preload(lpa int64) {
	plane := d.planeFor(lpa)
	if !d.ftl.CanAlloc(plane) {
		panic(fmt.Sprintf("ssd: preload exhausted plane %d", plane))
	}
	lin := d.ftl.allocPage(plane, HotStream)
	d.commit(lpa, lin, false)
	p := d.ftl.dec.ppa(lin)
	d.Die(p.Channel, p.Die).MarkProgrammed(p.Addr)
}

// hostCanWrite reports whether a new allocation on the plane can be
// permitted while keeping one full block in reserve for GC relocation.
func (d *Device) hostCanWrite(plane int) bool {
	reserve := d.geo.PagesPerBlock // one block for GC
	return d.ftl.AvailablePages(plane)-d.planeInflight[plane] > reserve
}

// whenWritable runs step now if the plane has safe allocation headroom,
// or queues it until GC reclaims space. The step holds one in-flight
// permit, which transfers to the allocation it will perform.
func (d *Device) whenWritable(plane int, step func()) {
	if d.hostCanWrite(plane) && d.pending[plane].Len() == 0 {
		d.planeInflight[plane]++
		step()
		return
	}
	d.pending[plane].Push(step)
	d.maybeGC(plane)
}

func (d *Device) drainPending(plane int) {
	q := &d.pending[plane]
	for q.Len() > 0 && d.hostCanWrite(plane) {
		step := q.Pop()
		d.planeInflight[plane]++
		step()
	}
}

// cacheTrackName is the trace track of the write cache's slots. It
// carries what a sim.Resource of CachePages units would: "hold" and
// "wait" spans and "in_use" and "queue" counters.
const cacheTrackName = "ssd/cache"

// takeCacheSlot gives the write o a cache slot and schedules its DRAM
// absorb, or queues it behind the writes already waiting for a slot.
//
//simlint:hotpath
func (d *Device) takeCacheSlot(o *op) {
	o.stage = stageWriteAbsorb
	// A slot is free only while no write waits: freeCacheSlot hands each
	// freed slot straight to the head of the queue.
	if d.cacheUsed < d.cfg.CachePages {
		d.grantCacheSlot(o)
		return
	}
	o.at = d.eng.Now()
	d.cacheWait.Push(o)
	if t := d.eng.Tracer(); t != nil {
		t.Counter(cacheTrackName, "queue", o.at, float64(d.cacheWait.Len()))
	}
}

// grantCacheSlot takes a slot for the write o and schedules its absorb.
//
//simlint:hotpath
func (d *Device) grantCacheSlot(o *op) {
	d.cacheUsed++
	o.at = d.eng.Now()
	if t := d.eng.Tracer(); t != nil {
		t.Counter(cacheTrackName, "in_use", o.at, float64(d.cacheUsed))
	}
	d.eng.Schedule(d.cfg.DRAMPageLatency, o.step)
}

// freeCacheSlot returns the slot the write o holds and hands it to the
// first waiting write. Freeing more slots than were taken panics.
//
//simlint:hotpath
func (d *Device) freeCacheSlot(o *op) {
	now := d.eng.Now()
	t := d.eng.Tracer()
	if t != nil {
		t.Span(cacheTrackName, "hold", o.at, now)
	}
	d.cacheUsed--
	if d.cacheUsed < 0 {
		panic("ssd: cache slot freed below zero")
	}
	if t != nil {
		t.Counter(cacheTrackName, "in_use", now, float64(d.cacheUsed))
	}
	if d.cacheWait.Len() == 0 {
		return
	}
	w := d.cacheWait.Pop()
	if t != nil {
		t.Counter(cacheTrackName, "queue", now, float64(d.cacheWait.Len()))
		t.Span(cacheTrackName, "wait", w.at, now)
	}
	d.grantCacheSlot(w)
}

// Read performs an external page read of lpa: NVMe command overhead, array
// read, channel-bus transfer out. Reading an unmapped page panics (the
// harness always writes before reading).
//
//simlint:hotpath
func (d *Device) Read(lpa int64, done func()) {
	d.opStart()
	o := d.getOp(kindRead)
	o.lpa, o.done = lpa, done
	o.stage = stageReadCmd
	d.eng.Schedule(d.cfg.CmdLatency, o.step)
}

// Write performs an external page write of lpa through the DRAM cache:
// done fires when the page is absorbed in DRAM (host completion); the
// NAND program continues in the background, with backpressure from the
// cache's CachePages slots. The flush moves the page over the bus to its
// die, then allocates and programs (see program); the cache slot frees
// once the mapping commits.
//
//simlint:hotpath
func (d *Device) Write(lpa int64, done func()) {
	d.opStart()
	o := d.getOp(kindWrite)
	o.lpa, o.done = lpa, done
	o.stage = stageWriteCmd
	d.eng.Schedule(d.cfg.CmdLatency, o.step)
}

// Trim invalidates a logical page.
func (d *Device) Trim(lpa int64) {
	mapped := d.ftl.lookupLinear(lpa) != unmapped
	d.ftl.Invalidate(lpa)
	if mapped {
		d.boundary(BoundaryTrim, lpa)
	}
}

// ReadMapped performs an internal array read (no bus transfer) of the page
// currently backing lpa — the first phase of an in-storage update.
//
//simlint:hotpath
func (d *Device) ReadMapped(lpa int64, done func()) {
	lin := d.ftl.lookupLinear(lpa)
	if lin == unmapped {
		//simlint:allow hotalloc cold panic path; formatting happens only on a harness bug
		panic(fmt.Sprintf("ssd: internal read of unmapped lpa %d", lpa))
	}
	d.opStart()
	d.updateReads++
	o := d.getOp(kindScan)
	o.lpa, o.lin, o.done = lpa, lin, done
	d.arrayRead(o)
}

// InjectReadErrors arranges for the next n reads of lpa to come back
// uncorrectable, forcing read-retry recovery. Failure-injection hook for
// tests and reliability studies.
func (d *Device) InjectReadErrors(lpa int64, n int) {
	if d.injectedReadErrs == nil {
		d.injectedReadErrs = map[int64]int{}
	}
	d.injectedReadErrs[lpa] += n
}

// readRetryFactor is the array-time multiple one read-retry recovery pass
// costs (threshold-shifted re-reads until ECC converges).
const readRetryFactor = 3

// onReadDone feeds the block-retirement tracker after a read converges,
// retiring the block when its cumulative retry budget is exhausted. Nil
// tracker (retirement disabled) keeps this a single branch.
func (d *Device) onReadDone(lin int64, retries int) {
	if d.retire == nil {
		return
	}
	b := d.ftl.dec.block(lin)
	if d.retire.OnRead(b, retries) != ecc.BlockRetired {
		return
	}
	plane := d.ftl.dec.plane(lin)
	if block := b - plane*d.geo.BlocksPerPlane; !d.ftl.Retired(plane, block) {
		d.retireBlock(plane, block)
	}
}

// ProgramUpdate programs updated data for lpa into a fresh page in the
// same plane as its current mapping (array program only — the data comes
// from the on-die compute unit's buffer) and remaps the page. The old page
// becomes garbage for GC to reclaim.
//
//simlint:hotpath
func (d *Device) ProgramUpdate(lpa int64, done func()) {
	old := d.ftl.lookupLinear(lpa)
	if old == unmapped {
		//simlint:allow hotalloc cold panic path; formatting happens only on a harness bug
		panic(fmt.Sprintf("ssd: update of unmapped lpa %d", lpa))
	}
	d.opStart()
	o := d.getOp(kindUpdate)
	o.lpa, o.plane, o.done = lpa, d.ftl.dec.plane(old), done
	o.stage = stageUpdatePermit
	d.whenWritable(o.plane, o.step)
}

// TransferToDie models moving n bytes from the controller to a die's
// compute buffer over the channel bus (gradient delivery).
//
//simlint:hotpath
func (d *Device) TransferToDie(ch, die, n int, done func()) {
	d.opStart()
	o := d.getOp(kindTransfer)
	o.done = done
	o.stage = stageTransfer
	d.channels[ch].TransferIn(die, n, o.step)
}

// TransferFromDie models moving n bytes from a die's compute buffer to the
// controller over the channel bus (low-precision weights out).
//
//simlint:hotpath
func (d *Device) TransferFromDie(ch, die, n int, done func()) {
	d.opStart()
	o := d.getOp(kindTransfer)
	o.done = done
	o.stage = stageTransfer
	d.channels[ch].TransferOut(die, n, o.step)
}
