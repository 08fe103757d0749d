package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// smallConfig returns a 2×2-die device with tiny blocks so GC is easy to
// provoke.
func smallConfig() Config {
	n := nand.ParamsFor(nand.TLC)
	n.PlanesPerDie = 2
	n.BlocksPerPlane = 8
	n.PagesPerBlock = 4
	return Config{
		Channels:        2,
		DiesPerChannel:  2,
		Nand:            n,
		OverProvision:   0.25,
		GCLowWater:      2,
		GCHighWater:     3,
		CachePages:      16,
		DRAMPageLatency: 2 * sim.Microsecond,
		CmdLatency:      5 * sim.Microsecond,
	}
}

func runDrained(t *testing.T, e *sim.Engine, d *Device) {
	t.Helper()
	drained := false
	d.Drain(func() { drained = true })
	e.Run()
	if !drained {
		t.Fatal("device did not drain (stuck operations)")
	}
	if err := d.FTL().CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	wrote := false
	d.Write(42, func() { wrote = true })
	runDrained(t, e, d)
	if !wrote {
		t.Fatal("write completion missing")
	}
	var readAt sim.Time
	d.Read(42, func() { readAt = e.Now() })
	start := e.Now()
	runDrained(t, e, d)
	cfg := d.Config()
	wantMin := cfg.CmdLatency + cfg.Nand.ReadLatency
	if readAt-start < wantMin {
		t.Fatalf("read latency %v < floor %v", readAt-start, wantMin)
	}
	s := d.Stats()
	if s.HostReads != 1 || s.HostWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeviceWriteCompletesInDRAM(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	var ackAt sim.Time
	d.Write(0, func() { ackAt = e.Now() })
	runDrained(t, e, d)
	cfg := d.Config()
	wantAck := cfg.CmdLatency + cfg.DRAMPageLatency
	if ackAt != wantAck {
		t.Fatalf("host ack at %v, want %v (cache absorb)", ackAt, wantAck)
	}
	// But the NAND program happened in the background.
	if d.Counts().Programs != 1 {
		t.Fatal("background program missing")
	}
}

func TestDeviceStriping(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	planes := d.Geometry().Planes()
	for lpa := int64(0); lpa < int64(planes); lpa++ {
		d.Write(lpa, nil)
	}
	runDrained(t, e, d)
	// Default mapper round-robins planes: each die got writes.
	for ch := 0; ch < d.Config().Channels; ch++ {
		for die := 0; die < d.Config().DiesPerChannel; die++ {
			if d.Die(ch, die).Counts().Programs == 0 {
				t.Fatalf("die %d/%d received no writes", ch, die)
			}
		}
	}
}

func TestDeviceReadUnmappedPanics(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Read(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("read of unmapped lpa did not panic")
		}
	}()
	e.Run()
}

func TestDevicePreload(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(9)
	e.Run()
	if e.Now() != 0 || e.Fired() != 0 {
		t.Fatal("preload consumed simulated time")
	}
	if _, ok := d.FTL().Lookup(9); !ok {
		t.Fatal("preload did not map")
	}
	var done bool
	d.Read(9, func() { done = true })
	runDrained(t, e, d)
	if !done {
		t.Fatal("read of preloaded page failed")
	}
}

func TestDeviceGCUnderOverwrite(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	// Fill the full logical capacity (75% physical occupancy), then
	// overwrite a strided hot subset: blocks end up mixing valid cold
	// pages with stale hot ones, forcing relocations.
	lpas := d.Config().LogicalPages()
	for lpa := int64(0); lpa < lpas; lpa++ {
		d.Write(lpa, nil)
	}
	runDrained(t, e, d)
	for round := 0; round < 10; round++ {
		// Stride 3 is coprime with the 8-plane stripe, so every plane's
		// blocks end up one-third stale.
		for lpa := int64(0); lpa < lpas; lpa += 3 {
			d.Write(lpa, nil)
		}
		// Drain between rounds to bound cache/queue growth.
		runDrained(t, e, d)
	}
	s := d.Stats()
	if s.GCErases == 0 {
		t.Fatal("no GC despite sustained overwrites")
	}
	if s.GCRelocations == 0 {
		t.Fatal("hot/cold mix produced no relocations")
	}
	if s.WAF <= 1 {
		t.Fatalf("WAF = %v, want > 1", s.WAF)
	}
}

func TestDeviceBackpressureNoDeadlock(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	// Burst far beyond one plane's capacity, all to lpas on plane 0.
	planes := int64(d.Geometry().Planes())
	lpasOnPlane0 := []int64{}
	for lpa := int64(0); lpa < d.Config().LogicalPages(); lpa += planes {
		lpasOnPlane0 = append(lpasOnPlane0, lpa)
	}
	for round := 0; round < 8; round++ {
		for _, lpa := range lpasOnPlane0 {
			d.Write(lpa, nil)
		}
	}
	runDrained(t, e, d) // fails if anything wedges
	if d.Stats().GCErases == 0 {
		t.Fatal("plane-0 burst did not trigger GC")
	}
}

func TestDeviceProgramUpdateStaysInPlane(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(5)
	before, _ := d.FTL().Lookup(5)
	planeBefore := d.Geometry().PlaneOf(before)
	var done bool
	d.ProgramUpdate(5, func() { done = true })
	runDrained(t, e, d)
	if !done {
		t.Fatal("update did not complete")
	}
	after, _ := d.FTL().Lookup(5)
	if after == before {
		t.Fatal("update did not remap (no in-place NAND overwrite exists)")
	}
	if d.Geometry().PlaneOf(after) != planeBefore {
		t.Fatal("update left the plane — breaks die locality")
	}
	if d.Stats().UpdateWrites != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestDeviceReadMappedNoBus(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(2)
	var doneAt sim.Time
	d.ReadMapped(2, func() { doneAt = e.Now() })
	runDrained(t, e, d)
	// Array read only: exactly tR, no bus transfer, no cmd overhead.
	if doneAt != d.Config().Nand.ReadLatency {
		t.Fatalf("internal read took %v, want %v", doneAt, d.Config().Nand.ReadLatency)
	}
	if d.Counts().BytesOut != 0 {
		t.Fatal("internal read moved bytes over the bus")
	}
}

func TestDeviceUpdateStreamWithGC(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	// Preload a working set, then update it repeatedly: the log-structured
	// state region must rotate through GC without deadlock.
	n := d.Config().LogicalPages() / 2
	for lpa := int64(0); lpa < n; lpa++ {
		d.Preload(lpa)
	}
	for round := 0; round < 8; round++ {
		for lpa := int64(0); lpa < n; lpa++ {
			d.ProgramUpdate(lpa, nil)
		}
		runDrained(t, e, d)
	}
	s := d.Stats()
	if s.UpdateWrites != uint64(8*n) {
		t.Fatalf("update writes = %d, want %d", s.UpdateWrites, 8*n)
	}
	if s.GCErases == 0 {
		t.Fatal("update stream never triggered GC")
	}
}

func TestWearLevellingBoundsSpread(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	n := d.Config().LogicalPages() / 2
	for lpa := int64(0); lpa < n; lpa++ {
		d.Preload(lpa)
	}
	// Sustained update stream: many erase cycles per block.
	for round := 0; round < 40; round++ {
		for lpa := int64(0); lpa < n; lpa++ {
			d.ProgramUpdate(lpa, nil)
		}
		runDrained(t, e, d)
	}
	for plane := 0; plane < d.Geometry().Planes(); plane++ {
		min, max := wearSpread(d.FTL(), plane)
		if max == 0 {
			t.Fatalf("plane %d never erased", plane)
		}
		// Wear-aware free-block selection must keep the spread tight
		// relative to the total cycling.
		if max-min > max/2+2 {
			t.Fatalf("plane %d wear spread %d..%d too wide", plane, min, max)
		}
	}
}

func TestFTLWearAccessors(t *testing.T) {
	f := newTestFTL()
	g := f.geo
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false)
	}
	victim, _ := f.PickVictim(0)
	for _, lpa := range f.ValidLPAs(0, victim) {
		f.CommitWrite(lpa, f.AllocPage(0), true)
	}
	f.OnErased(0, victim)
	if blockErases(f, 0, victim) != 1 {
		t.Fatalf("erase tally = %d", blockErases(f, 0, victim))
	}
	min, max := wearSpread(f, 0)
	if min != 0 || max != 1 {
		t.Fatalf("spread = %d..%d", min, max)
	}
}

func TestWearAwareAllocPrefersColdBlock(t *testing.T) {
	f := newTestFTL()
	g := f.geo
	// Cycle block 0 once so it has one erase; block 1.. stay cold.
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false)
	}
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.Invalidate(lpa)
	}
	victim, ok := f.PickVictim(0)
	if !ok || victim != 0 {
		t.Fatalf("victim = %d %v", victim, ok)
	}
	f.OnErased(0, 0)
	// Next open must NOT be the just-erased block 0 (1 P/E) while colder
	// blocks exist.
	ppa := f.AllocPage(0)
	if ppa.Block == 0 {
		t.Fatal("allocator reused the hottest block while cold blocks were free")
	}
}

func TestDeviceTransferToFromDie(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	var inAt, outAt sim.Time
	d.TransferToDie(0, 0, 8192, func() { inAt = e.Now() })
	d.TransferFromDie(0, 0, 8192, func() { outAt = e.Now() })
	runDrained(t, e, d)
	tx := d.Config().Nand.TransferTime(8192)
	if inAt != tx || outAt != 2*tx {
		t.Fatalf("transfers at %v/%v, want %v/%v (bus serialized)", inAt, outAt, tx, 2*tx)
	}
}

func TestDeviceTrim(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(1)
	d.Trim(1)
	if _, ok := d.FTL().Lookup(1); ok {
		t.Fatal("trim did not unmap")
	}
}

func TestDeviceCustomPlaneMapper(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.SetPlaneMapper(func(lpa int64) int { return 3 })
	d.Write(0, nil)
	d.Write(1, nil)
	runDrained(t, e, d)
	for lpa := int64(0); lpa < 2; lpa++ {
		ppa, _ := d.FTL().Lookup(lpa)
		if d.Geometry().PlaneOf(ppa) != 3 {
			t.Fatalf("lpa %d placed on plane %d, want 3", lpa, d.Geometry().PlaneOf(ppa))
		}
	}
	if d.PlaneOf(99) != 3 {
		t.Fatal("PlaneOf should use mapper for unmapped lpas")
	}
}

func TestDeviceDrainImmediate(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	called := false
	d.Drain(func() { called = true })
	if !called {
		t.Fatal("drain on idle device should fire synchronously")
	}
	_ = e
}

func TestDeviceSequentialWriteThroughputProgramBound(t *testing.T) {
	e := sim.NewEngine()
	cfg := smallConfig()
	cfg.CachePages = 256
	d := NewDevice(e, cfg)
	// Stream half of the first block row across every plane, twice over:
	// enough to reach steady state without GC.
	planes := d.Geometry().Planes()
	n := planes * d.Geometry().PagesPerBlock * 2
	for i := 0; i < n; i++ {
		d.Write(int64(i), nil)
	}
	runDrained(t, e, d)
	// Program-bound floor: pagesPerPlane × tPROG.
	pagesPerPlane := n / planes
	//simlint:allow simtime page count scales tPROG; the count is not a duration
	floor := sim.Time(pagesPerPlane) * cfg.Nand.ProgramLatency
	if e.Now() < floor {
		t.Fatalf("finished at %v, below physical floor %v", e.Now(), floor)
	}
	// And within 2× of the floor: pipeline keeps planes busy.
	if e.Now() > 2*floor {
		t.Fatalf("finished at %v, more than 2× program floor %v — pipeline stalls", e.Now(), floor)
	}
}

func TestReadRetryRecovery(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(4)
	tR := d.Config().Nand.ReadLatency

	// Clean internal read: exactly tR.
	var cleanAt sim.Time
	d.ReadMapped(4, func() { cleanAt = e.Now() })
	runDrained(t, e, d)
	if cleanAt != tR {
		t.Fatalf("clean read = %v", cleanAt)
	}

	// One injected error: tR + retry (3×tR) + the clean re-read tR.
	d.InjectReadErrors(4, 1)
	start := e.Now()
	var failAt sim.Time
	d.ReadMapped(4, func() { failAt = e.Now() })
	runDrained(t, e, d)
	want := tR + 3*tR + tR
	if failAt-start != want {
		t.Fatalf("recovered read took %v, want %v", failAt-start, want)
	}
	if d.Stats().RecoveredErrors != 1 {
		t.Fatalf("recovered = %d", d.Stats().RecoveredErrors)
	}

	// Error consumed: next read is clean again.
	start = e.Now()
	var again sim.Time
	d.ReadMapped(4, func() { again = e.Now() })
	runDrained(t, e, d)
	if again-start != tR {
		t.Fatalf("post-recovery read = %v", again-start)
	}
}

func TestReadRetryOnExternalPath(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(6)
	d.InjectReadErrors(6, 2)
	var doneAt sim.Time
	d.Read(6, func() { doneAt = e.Now() })
	runDrained(t, e, d)
	cfg := d.Config()
	tR := cfg.Nand.ReadLatency
	// cmd + (tR + 3tR)×2 retries + clean tR + bus transfer.
	want := cfg.CmdLatency + 2*(tR+3*tR) + tR + cfg.Nand.TransferTime(cfg.Nand.PageSize)
	if doneAt != want {
		t.Fatalf("external read with 2 errors = %v, want %v", doneAt, want)
	}
	if d.Stats().RecoveredErrors != 2 {
		t.Fatalf("recovered = %d", d.Stats().RecoveredErrors)
	}
}

func TestReadAfterWriteHitsCache(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	cfg := d.Config()
	// Write, then read as soon as the write is acked — before the
	// background flush finishes.
	var start, readAt sim.Time
	d.Write(3, func() {
		start = e.Now()
		d.Read(3, func() { readAt = e.Now() })
	})
	runDrained(t, e, d)
	if start != cfg.CmdLatency+cfg.DRAMPageLatency {
		t.Fatalf("write acked at %v, want %v", start, cfg.CmdLatency+cfg.DRAMPageLatency)
	}
	// Served from DRAM: cmd + DRAM latency, far below the NAND path.
	want := cfg.CmdLatency + cfg.DRAMPageLatency
	if readAt-start != want {
		t.Fatalf("cached read took %v, want %v", readAt-start, want)
	}
	if d.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d", d.Stats().CacheHits)
	}
	// After the flush completes, reads go to NAND again.
	start = e.Now()
	d.Read(3, func() { readAt = e.Now() })
	runDrained(t, e, d)
	if readAt-start < cfg.CmdLatency+cfg.Nand.ReadLatency {
		t.Fatal("post-flush read still served from cache")
	}
	if d.Stats().CacheHits != 1 {
		t.Fatal("unexpected extra cache hit")
	}
}

// cacheTrack records the "ssd/cache" track of a traced device: its hold
// and wait spans and its in_use samples.
type cacheTrack struct {
	holds, waits [][2]sim.Time
	inUse        []float64
}

func (c *cacheTrack) Span(track, name string, start, end sim.Time) {
	if track != "ssd/cache" {
		return
	}
	switch name {
	case "hold":
		c.holds = append(c.holds, [2]sim.Time{start, end})
	case "wait":
		c.waits = append(c.waits, [2]sim.Time{start, end})
	}
}

func (c *cacheTrack) Instant(string, string, sim.Time) {}

func (c *cacheTrack) Counter(track, name string, _ sim.Time, v float64) {
	if track == "ssd/cache" && name == "in_use" {
		c.inUse = append(c.inUse, v)
	}
}

// TestCacheTrackTracesWriteSlots issues four times as many writes at
// once as the DRAM write cache has slots, so most wait for one. Every
// write holds one slot from its grant to its flush commit, the slots in
// use never leave [0, CachePages], and a waiting write's wait ends at
// the instant its hold starts.
func TestCacheTrackTracesWriteSlots(t *testing.T) {
	e := sim.NewEngine()
	tr := &cacheTrack{}
	e.SetTracer(tr)
	d := NewDevice(e, smallConfig())
	slots := d.Config().CachePages
	for lpa := int64(0); lpa < int64(4*slots); lpa++ {
		d.Write(lpa, nil)
	}
	runDrained(t, e, d)

	if got, want := uint64(len(tr.holds)), d.Stats().HostWrites; got != want {
		t.Fatalf("%d hold spans, want one per host write (%d)", got, want)
	}
	for _, v := range tr.inUse {
		if v < 0 || v > float64(slots) {
			t.Fatalf("in_use sample %v outside [0, %d]", v, slots)
		}
	}
	if len(tr.waits) == 0 {
		t.Fatal("no write waited for a cache slot")
	}
	holdStarts := map[sim.Time]int{}
	for _, h := range tr.holds {
		holdStarts[h[0]]++
	}
	for _, w := range tr.waits {
		if holdStarts[w[1]] == 0 {
			t.Fatalf("wait span [%d, %d] ends where no hold span starts", w[0], w[1])
		}
		holdStarts[w[1]]--
	}
}

// TestCacheSlotFreedBelowZeroPanics frees a cache slot that no write
// holds: a model bug, which must not pass silently.
func TestCacheSlotFreedBelowZeroPanics(t *testing.T) {
	d := NewDevice(sim.NewEngine(), smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("freeing an unheld cache slot did not panic")
		}
	}()
	d.freeCacheSlot(d.getOp(kindWrite))
}

// TestQueueDepthUnlocksParallelism bounds the commands outstanding on the
// device to a host-side queue depth: a read beyond it waits in a host
// queue until an outstanding one completes. QD1 pays the full device
// round trip per read; a deep queue lets the planes overlap them.
func TestQueueDepthUnlocksParallelism(t *testing.T) {
	run := func(depth int) sim.Time {
		e := sim.NewEngine()
		d := NewDevice(e, smallConfig())
		n := int64(d.Geometry().Planes() * 4)
		for lpa := int64(0); lpa < n; lpa++ {
			d.Preload(lpa)
		}
		outstanding := 0
		var queued []int64
		var issue func(lpa int64)
		issue = func(lpa int64) {
			if outstanding == depth {
				queued = append(queued, lpa)
				return
			}
			outstanding++
			d.Read(lpa, func() {
				outstanding--
				if len(queued) > 0 {
					next := queued[0]
					queued = queued[1:]
					issue(next)
				}
			})
		}
		for lpa := int64(0); lpa < n; lpa++ {
			issue(lpa)
		}
		runDrained(t, e, d)
		if outstanding != 0 || len(queued) != 0 {
			t.Fatalf("depth %d: queue not drained", depth)
		}
		return e.Now()
	}
	qd1 := run(1)
	qd32 := run(32)
	if qd32*4 > qd1 {
		t.Fatalf("QD32 (%v) should be ≥4× faster than QD1 (%v)", qd32, qd1)
	}
}

// The Device and FTL methods below are test API: no simulation path
// trims a page or allocates outside the device's own write path, but the
// tests drive the FTL and device directly through them.

// PlaneOf returns the plane a logical page is (or would be) placed on.
func (d *Device) PlaneOf(lpa int64) int {
	if lin := d.ftl.lookupLinear(lpa); lin != unmapped {
		return d.ftl.dec.plane(lin)
	}
	return d.planeFor(lpa)
}

// Trim invalidates a logical page.
func (d *Device) Trim(lpa int64) {
	mapped := d.ftl.lookupLinear(lpa) != unmapped
	d.ftl.Invalidate(lpa)
	if mapped {
		d.boundary(BoundaryTrim, lpa)
	}
}
