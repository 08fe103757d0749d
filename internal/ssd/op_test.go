package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// TestUpdateCycleAllocatesNothing pins the device data path's steady
// state: once the op-record freelist, the event pool and the FTL tables
// are warm, an in-storage update cycle — ReadMapped, then ProgramUpdate,
// then TransferFromDie, with GC relocating and erasing underneath —
// allocates nothing.
func TestUpdateCycleAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	n := d.Config().LogicalPages() * 3 / 4
	for lpa := int64(0); lpa < n; lpa++ {
		d.Preload(lpa)
	}
	var lpa int64
	transferred := func() {}
	programmed := func() {
		ppa, _ := d.FTL().Lookup(lpa)
		d.TransferFromDie(ppa.Channel, ppa.Die, 4096, transferred)
	}
	read := func() { d.ProgramUpdate(lpa, programmed) }
	cycle := func() {
		lpa = (lpa + 7) % n
		d.ReadMapped(lpa, read)
		e.Run()
	}
	// Warm-up: enough cycles for GC to have erased and refilled every
	// block, so every FTL table chunk exists.
	for i := 0; i < 20*int(d.Geometry().TotalPages()); i++ {
		cycle()
	}
	erases := d.Stats().GCErases
	per := testing.AllocsPerRun(1000, cycle)
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("update cycle allocates %v per run, want 0", per)
	}
	if d.Stats().GCErases == erases {
		t.Fatal("measured cycles never garbage collected")
	}
	if err := d.FTL().CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// updateWAFConfig is the device core.MeasureUpdateWAF simulates, at the
// 7% over-provisioning where its GC works hardest.
func updateWAFConfig() Config {
	n := nand.ParamsFor(nand.TLC)
	n.BlocksPerPlane = 16
	n.PagesPerBlock = 32
	n.PlanesPerDie = 2
	return Config{
		Channels:        2,
		DiesPerChannel:  2,
		Nand:            n,
		OverProvision:   0.07,
		GCLowWater:      2,
		GCHighWater:     3,
		CachePages:      64,
		DRAMPageLatency: 2 * sim.Microsecond,
		CmdLatency:      5 * sim.Microsecond,
	}
}

// BenchmarkDeviceUpdateGC measures in-storage updates under steady GC: one
// op is one ProgramUpdate of every logical page of the full device, then
// a drain, as each step of core.MeasureUpdateWAF does. One untimed step
// first fills the op-record freelist.
func BenchmarkDeviceUpdateGC(b *testing.B) {
	e := sim.NewEngine()
	d := NewDevice(e, updateWAFConfig())
	pages := d.FTL().LogicalPages()
	for lpa := int64(0); lpa < pages; lpa++ {
		d.Preload(lpa)
	}
	step := func() {
		for lpa := int64(0); lpa < pages; lpa++ {
			d.ProgramUpdate(lpa, nil)
		}
		e.Run()
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if d.Stats().GCRelocations == 0 {
		b.Fatal("no GC relocations")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pages), "ns/update")
}

// BenchmarkDeviceRead measures the external read path: command overhead,
// array read and bus transfer of one page per op, after one untimed read
// warms the pools.
func BenchmarkDeviceRead(b *testing.B) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	n := d.Config().LogicalPages() * 3 / 4
	for lpa := int64(0); lpa < n; lpa++ {
		d.Preload(lpa)
	}
	read := func(i int) {
		d.Read(int64(i)%n, nil)
		e.Run()
	}
	read(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
	b.StopTimer()
	if got := d.Stats().HostReads; got != uint64(b.N)+1 {
		b.Fatalf("%d reads completed, want %d", got, b.N+1)
	}
}
