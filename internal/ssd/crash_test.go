package ssd

import (
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/sim"
)

// churnWorkload drives a deterministic mixed workload (writes, in-storage
// updates, trims) that forces GC, mirroring contents in a dataPlane
// shadow. It returns the shadow and the expected latest version per lpa.
func churnWorkload(t *testing.T, e *sim.Engine, d *Device, seed int64, drain bool) (*dataPlane, map[int64]uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plane := newDataPlane()
	d.SetCommitHook(plane.hook)

	n := d.Config().LogicalPages() * 3 / 4
	expected := make(map[int64]uint64)
	version := uint64(0)
	for lpa := int64(0); lpa < n; lpa++ {
		version++
		plane.queue(lpa, version)
		expected[lpa] = version
		d.Preload(lpa)
	}
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(int(n)) {
			lpa := int64(i)
			switch rng.Intn(10) {
			case 0:
				d.Trim(lpa)
				delete(expected, lpa)
			case 1, 2:
				if _, ok := expected[lpa]; !ok {
					continue // trimmed; host rewrite below brings it back
				}
				version++
				plane.queue(lpa, version)
				expected[lpa] = version
				d.Write(lpa, nil)
			default:
				if _, ok := expected[lpa]; !ok {
					continue
				}
				version++
				plane.queue(lpa, version)
				expected[lpa] = version
				d.ProgramUpdate(lpa, nil)
			}
		}
		if drain {
			runDrained(t, e, d)
		}
	}
	return plane, expected
}

// TestBoundaryHookContract is the regression test for the hook contract:
// boundaries fire only AFTER the mutation completes, so the FTL must pass
// a full consistency check at every single hook point, under maximal GC
// churn. (The pre-contract hooks fired mid-mutation, where l2p/p2l
// disagree transiently.)
func TestBoundaryHookContract(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	var lastSeq uint64
	kinds := map[BoundaryKind]int{}
	d.SetBoundaryHook(func(b Boundary) {
		if b.Seq != lastSeq+1 {
			t.Fatalf("boundary seq %d after %d", b.Seq, lastSeq)
		}
		lastSeq = b.Seq
		kinds[b.Kind]++
		switch b.Kind {
		case BoundaryErase, BoundaryRetire:
			if b.LPA != -1 {
				t.Fatalf("%v boundary carries lpa %d", b.Kind, b.LPA)
			}
		default:
			if b.LPA < 0 {
				t.Fatalf("%v boundary without lpa", b.Kind)
			}
		}
		if err := d.FTL().CheckConsistent(); err != nil {
			t.Fatalf("inconsistent FTL at boundary %d (%v): %v", b.Seq, b.Kind, err)
		}
	})
	churnWorkload(t, e, d, 17, true)
	for _, k := range []BoundaryKind{BoundaryHostWrite, BoundaryUpdate, BoundaryGC, BoundaryErase, BoundaryTrim} {
		if kinds[k] == 0 {
			t.Fatalf("workload never hit a %v boundary (kinds: %v)", k, kinds)
		}
	}
}

// checkRecovered verifies the crash-consistency invariants between a
// crashed device and its recovery, against the content shadow:
//   - no live-page loss: every lpa mapped at the crash is mapped after
//     replay, to the same physical page;
//   - no resurrection: nothing unmapped at the crash is mapped after;
//   - content identity: the recovered mapping points at the physical page
//     holding the last committed version.
func checkRecovered(t *testing.T, crashed, rec *Device, shadow *dataPlane) {
	t.Helper()
	geo := crashed.Geometry()
	logical := crashed.Config().LogicalPages()
	var mapped int64
	for lpa := int64(0); lpa < logical; lpa++ {
		before, okBefore := crashed.FTL().Lookup(lpa)
		after, okAfter := rec.FTL().Lookup(lpa)
		if okBefore != okAfter {
			t.Fatalf("lpa %d: mapped-before=%v mapped-after=%v", lpa, okBefore, okAfter)
		}
		if !okBefore {
			continue
		}
		mapped++
		if before != after {
			t.Fatalf("lpa %d: moved %v -> %v across recovery", lpa, before, after)
		}
		if _, ok := shadow.store[geo.Linear(after)]; !ok {
			t.Fatalf("lpa %d: recovered mapping %v has no committed content", lpa, after)
		}
	}
	if mapped != rec.MappedPages() {
		t.Fatalf("recovered MappedPages %d, recount %d", rec.MappedPages(), mapped)
	}
}

// TestRecoverFromCleanState crashes a drained device (nothing in flight)
// and checks recovery is lossless and the device remains usable.
func TestRecoverFromCleanState(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	shadow, _ := churnWorkload(t, e, d, 23, true)

	e2 := sim.NewEngine()
	rec, info, err := Recover(e2, d)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornPages != 0 || info.LostDirty != 0 {
		t.Fatalf("clean crash reported torn=%d dirty=%d", info.TornPages, info.LostDirty)
	}
	if info.MappedPages != d.MappedPages() {
		t.Fatalf("recovered %d pages, crashed had %d", info.MappedPages, d.MappedPages())
	}
	checkRecovered(t, d, rec, shadow)
	//simlint:allow floateq recovery must carry the WAF tallies bit-exactly
	if rec.FTL().WAF() != d.FTL().WAF() {
		t.Fatalf("WAF tallies not carried: %v vs %v", rec.FTL().WAF(), d.FTL().WAF())
	}

	// The recovered device must keep working: all frontiers were sealed,
	// so new writes force fresh allocations and eventually GC.
	rec.SetCommitHook(shadow.hook)
	n := rec.Config().LogicalPages() / 2
	for lpa := int64(0); lpa < n; lpa++ {
		shadow.queue(lpa, uint64(1000+lpa))
		rec.Write(lpa, nil)
	}
	runDrained(t, e2, rec)
}

// TestRecoverMidFlight cuts the power at a mid-run op boundary with
// programs in flight and checks torn-write semantics: in-flight programs
// surface as torn pages, mappings survive exactly, dirty cache pages are
// reported lost.
func TestRecoverMidFlight(t *testing.T) {
	// Reference run to count boundaries.
	refEng := sim.NewEngine()
	refDev := NewDevice(refEng, smallConfig())
	total := 0
	refDev.SetBoundaryHook(func(Boundary) { total++ })
	churnWorkload(t, refEng, refDev, 31, true)
	if total < 100 {
		t.Fatalf("churn produced only %d boundaries", total)
	}

	crashAt := total / 2
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.SetBoundaryHook(func(b Boundary) {
		if int(b.Seq) == crashAt {
			e.Stop()
		}
	})
	// Same churn, no intermediate drains (so the crash lands mid-flight);
	// the shadow only records committed content, which is what recovery
	// must reproduce.
	shadow, _ := churnWorkload(t, e, d, 31, false)
	e.Run()

	rec, info, err := Recover(sim.NewEngine(), d)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, d, rec, shadow)
	if info.MappedPages == 0 {
		t.Fatal("nothing recovered from a mid-run crash")
	}
	t.Logf("crash at boundary %d/%d: mapped=%d torn=%d dirty=%d",
		crashAt, total, info.MappedPages, info.TornPages, info.LostDirty)
}

// TestRecoverRejectsMappedBeyondWritePtr pins the mapped ⊆ programmed
// check: a mapping pointing past its block's write pointer (an impossible
// durable state under commit-at-completion) must fail recovery, not be
// silently repaired.
func TestRecoverRejectsMappedBeyondWritePtr(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	d.Preload(0)
	ppa, _ := d.FTL().Lookup(0)
	// Roll the block's physical write pointer back under the mapping.
	d.Die(ppa.Channel, ppa.Die).RestoreBlock(ppa.Plane, ppa.Block, 0, 0)
	if _, _, err := Recover(sim.NewEngine(), d); err == nil {
		t.Fatal("recovery accepted a mapping beyond the write pointer")
	}
}

// TestRecoverAfterDieFailure loses one die and checks its pages are
// dropped (not resurrected), its blocks retired, and the rest intact.
func TestRecoverAfterDieFailure(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	churnWorkload(t, e, d, 41, true)

	lostWant := d.MappedPagesOnDie(0, 0)
	if lostWant == 0 {
		t.Fatal("die 0/0 holds nothing — workload too small")
	}
	rec, info, err := RecoverAfterDieFailure(sim.NewEngine(), d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.LostPages != lostWant {
		t.Fatalf("lost %d pages, want %d", info.LostPages, lostWant)
	}
	if got := rec.MappedPages(); got != d.MappedPages()-lostWant {
		t.Fatalf("recovered %d mapped pages, want %d", got, d.MappedPages()-lostWant)
	}
	if !rec.Die(0, 0).Failed() {
		t.Fatal("failed die not marked")
	}
	geo := rec.Geometry()
	for p := 0; p < geo.PlanesPerDie; p++ {
		planeIdx := geo.PlaneIndex(0, 0, p)
		for b := 0; b < geo.BlocksPerPlane; b++ {
			if !rec.FTL().Retired(planeIdx, b) {
				t.Fatalf("block %d/%d of failed die still in service", planeIdx, b)
			}
		}
	}
	logical := rec.Config().LogicalPages()
	for lpa := int64(0); lpa < logical; lpa++ {
		if ppa, ok := rec.FTL().Lookup(lpa); ok && ppa.Channel == 0 && ppa.Die == 0 {
			t.Fatalf("lpa %d still mapped to the failed die", lpa)
		}
	}
	if _, _, err := RecoverAfterDieFailure(sim.NewEngine(), d, 9, 9); err == nil {
		t.Fatal("out-of-topology die accepted")
	}
}

// TestBlockRetirementRelocatesAndSeals drives ECC exhaustion on one block
// past the retry budget and checks the device retires it: valid pages
// relocated, mapping intact, block permanently out of circulation.
func TestBlockRetirementRelocatesAndSeals(t *testing.T) {
	cfg := smallConfig()
	cfg.Retire = ecc.RetirePolicy{RetryBudget: 6, ProbationReads: 2}
	e := sim.NewEngine()
	d := NewDevice(e, cfg)
	shadow := newDataPlane()
	d.SetCommitHook(shadow.hook)

	n := d.Config().LogicalPages() * 3 / 4
	for lpa := int64(0); lpa < n; lpa++ {
		shadow.queue(lpa, uint64(lpa))
		d.Preload(lpa)
	}
	victim, ok := d.FTL().Lookup(0)
	if !ok {
		t.Fatal("lpa 0 unmapped")
	}
	plane := d.Geometry().PlaneOf(victim)
	residents := d.FTL().ValidLPAs(plane, victim.Block)
	if len(residents) == 0 {
		t.Fatal("victim block empty")
	}

	// One scrub converging after RetryBudget retries retires the block.
	d.InjectReadErrors(0, cfg.Retire.RetryBudget)
	d.ScrubRead(0, nil)
	runDrained(t, e, d)

	s := d.Stats()
	if s.RetiredBlocks != 1 {
		t.Fatalf("retired %d blocks, want 1", s.RetiredBlocks)
	}
	if !d.FTL().Retired(plane, victim.Block) {
		t.Fatal("victim block not marked retired")
	}
	geo := d.Geometry()
	for _, lpa := range residents {
		ppa, ok := d.FTL().Lookup(lpa)
		if !ok {
			t.Fatalf("lpa %d lost in retirement", lpa)
		}
		if geo.PlaneOf(ppa) == plane && ppa.Block == victim.Block {
			t.Fatalf("lpa %d still on the retired block", lpa)
		}
		if got := shadow.store[geo.Linear(ppa)]; got != uint64(lpa) {
			t.Fatalf("lpa %d content %d after retirement, want %d", lpa, got, lpa)
		}
	}

	// Churn afterwards: the retired block must never re-enter circulation.
	// Each round tags its writes with a distinct content stride.
	const roundStride = 1000
	for round := 0; round < 6; round++ {
		for lpa := int64(0); lpa < n; lpa += 2 {
			shadow.queue(lpa, uint64(roundStride*round)+uint64(lpa))
			d.ProgramUpdate(lpa, nil)
		}
		runDrained(t, e, d)
	}
	if !d.FTL().Retired(plane, victim.Block) || d.FTL().ValidCount(plane, victim.Block) != 0 {
		t.Fatal("retired block re-entered circulation")
	}
}

// TestRetirementBelowBudgetDoesNothing pins the complementary boundary:
// retries one below the budget leave the block in service.
func TestRetirementBelowBudgetDoesNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.Retire = ecc.RetirePolicy{RetryBudget: 6, ProbationReads: 2}
	e := sim.NewEngine()
	d := NewDevice(e, cfg)
	n := d.Config().LogicalPages() / 2
	for lpa := int64(0); lpa < n; lpa++ {
		d.Preload(lpa)
	}
	d.InjectReadErrors(0, cfg.Retire.RetryBudget-1)
	d.ScrubRead(0, nil)
	runDrained(t, e, d)
	if got := d.Stats().RetiredBlocks; got != 0 {
		t.Fatalf("retired %d blocks below budget", got)
	}
}

// TestDisabledFaultLayerAddsNoAllocations pins the disabled-path cost of
// the fault seams on the device hot paths: with no boundary hook and no
// retirement policy, both reduce to a nil check and must not allocate.
func TestDisabledFaultLayerAddsNoAllocations(t *testing.T) {
	d := NewDevice(sim.NewEngine(), smallConfig())
	d.Preload(0)
	lin := d.FTL().lookupLinear(0)
	per := testing.AllocsPerRun(1000, func() {
		d.boundary(BoundaryHostWrite, 0)
		d.onReadDone(lin, 0)
	})
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("disabled fault layer allocates %v per op, want 0", per)
	}
}
