// ssd_explorer demonstrates the SSD substrate on its own: how the FTL maps
// logical pages, how sequential vs random overwrites drive garbage
// collection and write amplification, and how the channel/plane topology
// sets bandwidth ceilings. Nothing here involves DNN training — it is the
// storage system the in-storage optimizer is built on.
//
// Run with: go run ./examples/ssd_explorer
package main

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

func device() (*sim.Engine, *ssd.Device) {
	n := nand.ParamsFor(nand.TLC)
	n.BlocksPerPlane = 32
	n.PlanesPerDie = 2
	cfg := ssd.Config{
		Channels: 2, DiesPerChannel: 2, Nand: n,
		OverProvision: 0.125, GCLowWater: 2, GCHighWater: 4,
		CachePages: 256, DRAMPageLatency: 2 * sim.Microsecond,
		CmdLatency: 5 * sim.Microsecond,
	}
	eng := sim.NewEngine()
	return eng, ssd.NewDevice(eng, cfg)
}

func main() {
	// --- 1. Address translation --------------------------------------------
	eng, dev := device()
	fmt.Println("1. The FTL is log-structured: rewriting a page moves it.")
	dev.Preload(7)
	before, _ := dev.FTL().Lookup(7)
	done := false
	dev.ProgramUpdate(7, sim.Func(func() { done = true }))
	eng.Run()
	after, _ := dev.FTL().Lookup(7)
	fmt.Printf("   lpa 7: %v -> %v (rewritten in place? %v — NAND forbids it)\n\n",
		before, after, done && before == after)

	// --- 2. Sequential vs random overwrites --------------------------------
	fmt.Println("2. Write amplification: sequential vs random overwrites at 87.5% occupancy.")
	t := stats.NewTable("", "workload", "host-writes", "gc-relocations", "gc-erases", "WAF", "MB/s")
	for _, pat := range []trace.Pattern{trace.SeqWrite, trace.RandWrite} {
		eng, dev := device()
		logical := dev.FTL().LogicalPages()
		for lpa := int64(0); lpa < logical; lpa++ {
			dev.Preload(lpa) // precondition: drive full
		}
		reqs := trace.GenerateIO(pat, int(logical*3), logical, 1)
		var issue func()
		i, inFlight := 0, 0
		issue = func() {
			for inFlight < 64 && i < len(reqs) {
				r := reqs[i]
				i++
				inFlight++
				dev.Write(r.LPA, sim.Func(func() { inFlight--; issue() }))
			}
		}
		issue()
		eng.Run()
		ok := false
		dev.Drain(sim.Func(func() { ok = true }))
		eng.Run()
		s := dev.Stats()
		mbps := units.Bytes(int64(s.HostWrites)*int64(dev.Geometry().PageSize)).MBf() / eng.Now().Seconds()
		t.AddRow(pat.String(), s.HostWrites, s.GCRelocations, s.GCErases,
			fmt.Sprintf("%.2f%s", s.WAF, ok1(ok)), mbps)
	}
	fmt.Print(t)
	fmt.Println(`   Random overwrites leave every block partially valid, so GC must copy
   live pages before erasing — write amplification and lost bandwidth.`)
	fmt.Println()

	// --- 3. Bandwidth ceilings ----------------------------------------------
	fmt.Println("3. Topology sets the ceilings (full-size 8x4-die drive):")
	cfg := ssd.DefaultConfig()
	fmt.Printf("   internal read  %6.1f GB/s  (%d planes x tR)\n",
		cfg.InternalReadMBps().GBps(), cfg.Geometry().Planes())
	fmt.Printf("   internal write %6.1f GB/s  (%d planes x tPROG)\n",
		cfg.InternalProgramMBps().GBps(), cfg.Geometry().Planes())
	fmt.Printf("   channel buses  %6.1f GB/s  (%d x %d MB/s)\n",
		cfg.ChannelMBps().GBps(), cfg.Channels, cfg.Nand.BusMBps)
	fmt.Println("   -> reads are 3.4x faster than the buses can drain them:")
	fmt.Println("      the bandwidth in-storage processing taps, and offloading wastes.")
}

func ok1(ok bool) string {
	if ok {
		return ""
	}
	return " (!drain)"
}
