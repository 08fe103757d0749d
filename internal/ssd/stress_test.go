package ssd

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestDeviceRandomWorkloadInvariants drives the full device stack — host
// writes through the cache, in-storage updates, reads (NAND and cache
// hits), trims, injected read errors, GC and wear levelling — with a
// randomized but deterministic operation mix across several seeds, and
// checks every invariant the simulator promises:
//
//   - the device always drains (no wedged pipelines),
//   - the FTL maps stay a consistent bijection,
//   - the data-plane shadow matches the latest committed content,
//   - counters reconcile with the NAND-level operation tallies.
func TestDeviceRandomWorkloadInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		seed := seed
		t.Run("", func(t *testing.T) {
			runRandomWorkload(t, seed)
		})
	}
}

func runRandomWorkload(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	cfg := smallConfig()
	cfg.HotColdSeparation = rng.Intn(2) == 0
	d := NewDevice(e, cfg)
	plane := newDataPlane()
	// Writes commit asynchronously (cache → flush); updates and reads may
	// only target pages whose first write has actually committed.
	committed := map[int64]bool{}
	d.SetCommitHook(func(lpa, oldLin, newLin int64, gc bool) {
		plane.hook(lpa, oldLin, newLin, gc)
		committed[lpa] = true
	})

	logical := d.Config().LogicalPages()
	expected := map[int64]uint64{} // lpa -> latest version; absent = unmapped
	readsInFlight := map[int64]int{}
	version := uint64(0)

	mapped := func() []int64 {
		out := make([]int64, 0, len(expected))
		//simlint:allow maporder sorted below so seeded runs stay reproducible
		for lpa := range expected {
			if committed[lpa] {
				out = append(out, lpa)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	ops := 1200
	for i := 0; i < ops; i++ {
		// Drain occasionally so queues stay bounded and time advances in
		// bursts, like a real duty cycle.
		if i%200 == 199 {
			runDrained(t, e, d)
		}
		switch k := rng.Intn(10); {
		case k < 4: // host write (new or overwrite)
			lpa := rng.Int63n(logical)
			version++
			plane.queue(lpa, version)
			expected[lpa] = version
			d.Write(lpa, nil)
		case k < 7: // in-storage update of a mapped page
			ms := mapped()
			if len(ms) == 0 {
				continue
			}
			lpa := ms[rng.Intn(len(ms))]
			version++
			plane.queue(lpa, version)
			expected[lpa] = version
			d.ProgramUpdate(lpa, nil)
		case k < 8: // read a mapped page (sometimes with an injected error)
			ms := mapped()
			if len(ms) == 0 {
				continue
			}
			lpa := ms[rng.Intn(len(ms))]
			if rng.Intn(4) == 0 {
				d.InjectReadErrors(lpa, 1)
			}
			readsInFlight[lpa]++
			d.Read(lpa, sim.Func(func() { readsInFlight[lpa]-- }))
		case k < 9: // internal read
			ms := mapped()
			if len(ms) == 0 {
				continue
			}
			lpa := ms[rng.Intn(len(ms))]
			readsInFlight[lpa]++
			d.ReadMapped(lpa, sim.Func(func() { readsInFlight[lpa]-- }))
		default: // trim — but never a page with writes still in flight,
			// matching the "host does not trim data it is writing" contract.
			ms := mapped()
			if len(ms) == 0 {
				continue
			}
			lpa := ms[rng.Intn(len(ms))]
			// Host contract: no trim while I/O to the page is in flight.
			if len(plane.pending[lpa]) > 0 || readsInFlight[lpa] > 0 {
				continue
			}
			d.Trim(lpa)
			delete(expected, lpa)
			delete(committed, lpa)
		}
	}
	runDrained(t, e, d) // fails on wedge or FTL inconsistency

	// Content integrity for every live page.
	geo := d.Geometry()
	//simlint:allow maporder per-key invariants, order-free
	for lpa, want := range expected {
		ppa, ok := d.FTL().Lookup(lpa)
		if !ok {
			t.Fatalf("seed %d: lpa %d lost", seed, lpa)
		}
		if got := plane.store[geo.Linear(ppa)]; got != want {
			t.Fatalf("seed %d: lpa %d content %d want %d", seed, lpa, got, want)
		}
	}

	// Counter reconciliation: NAND program ops = host + update + GC
	// programs, committed or superseded-in-flight (preload marks don't
	// program).
	s := d.Stats()
	nand := d.Counts()
	if nand.Programs != s.HostWrites+s.UpdateWrites+s.GCRelocations+s.GCStalePrograms {
		t.Fatalf("seed %d: programs %d != host %d + update %d + gc %d + stale %d",
			seed, nand.Programs, s.HostWrites, s.UpdateWrites, s.GCRelocations, s.GCStalePrograms)
	}
	if nand.Erases != s.GCErases {
		t.Fatalf("seed %d: erases %d != gc erases %d", seed, nand.Erases, s.GCErases)
	}
}
