package ssd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// blockErases returns the FTL's P/E tally for a plane's block; a block
// above the plane's mark has none.
func blockErases(f *FTL, planeIdx, block int) int {
	blocks := f.planes[planeIdx].blocks
	if block >= len(blocks) {
		return 0
	}
	return int(blocks[block].erases)
}

// wearSpread returns the min and max P/E count across every block of a
// plane — the quantity wear levelling exists to bound.
func wearSpread(f *FTL, planeIdx int) (min, max int) {
	min = blockErases(f, planeIdx, 0)
	max = min
	for b := 1; b < f.Geometry().BlocksPerPlane; b++ {
		e := blockErases(f, planeIdx, b)
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}

// hasFullBlock reports whether the plane has at least one completely
// written block (a GC candidate).
func hasFullBlock(f *FTL, planeIdx int) bool {
	return len(f.planes[planeIdx].full) > 0
}

func newTestFTL() *FTL {
	g := testGeo()
	return NewFTL(g, g.TotalPages()*3/4)
}

func TestFTLAllocSequential(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	var prev PPA
	for i := 0; i < g.PagesPerBlock*2; i++ {
		ppa := f.AllocPage(0)
		if i > 0 {
			if g.Linear(ppa) != g.Linear(prev)+1 && ppa.Block == prev.Block {
				t.Fatalf("non-sequential alloc: %v after %v", ppa, prev)
			}
		}
		prev = ppa
	}
	// Two blocks consumed.
	if f.FreeBlocks(0) != g.BlocksPerPlane-2 {
		t.Fatalf("free = %d", f.FreeBlocks(0))
	}
	if !hasFullBlock(f, 0) {
		t.Fatal("full blocks not tracked")
	}
}

func TestFTLLookupUnmapped(t *testing.T) {
	f := newTestFTL()
	if _, ok := f.Lookup(5); ok {
		t.Fatal("unmapped lpa resolved")
	}
}

func TestFTLCommitAndOverwrite(t *testing.T) {
	f := newTestFTL()
	p1 := f.AllocPage(0)
	f.CommitWrite(7, p1, false)
	got, ok := f.Lookup(7)
	if !ok || got != p1 {
		t.Fatalf("lookup = %v %v", got, ok)
	}
	if f.ValidCount(0, p1.Block) != 1 {
		t.Fatal("valid count after commit")
	}
	p2 := f.AllocPage(0)
	f.CommitWrite(7, p2, false)
	if f.ValidCount(0, p1.Block) != 1 { // p1 and p2 share block 0: -1 +1
		t.Fatalf("valid count after overwrite = %d", f.ValidCount(0, p1.Block))
	}
	got, _ = f.Lookup(7)
	if got != p2 {
		t.Fatal("overwrite did not remap")
	}
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLInvalidate(t *testing.T) {
	f := newTestFTL()
	ppa := f.AllocPage(0)
	f.CommitWrite(3, ppa, false)
	f.Invalidate(3)
	if _, ok := f.Lookup(3); ok {
		t.Fatal("lookup after invalidate")
	}
	if f.ValidCount(0, ppa.Block) != 0 {
		t.Fatal("valid count after invalidate")
	}
	f.Invalidate(3) // double trim is a no-op
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLDoubleCommitPanics(t *testing.T) {
	f := newTestFTL()
	ppa := f.AllocPage(0)
	f.CommitWrite(1, ppa, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double commit to same ppa did not panic")
		}
	}()
	f.CommitWrite(2, ppa, false)
}

func TestFTLPickVictimGreedy(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	// Fill two blocks in plane 0: block A gets 4 live pages, block B gets
	// 4 pages of which 3 are then overwritten into block C.
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false) // block 0
	}
	for lpa := int64(4); lpa < int64(4+g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false) // block 1
	}
	for lpa := int64(4); lpa < 7; lpa++ { // invalidate 3 pages of block 1
		f.CommitWrite(lpa, f.AllocPage(0), false) // block 2
	}
	victim, ok := f.PickVictim(0)
	if !ok || victim != 1 {
		t.Fatalf("victim = %d %v, want block 1", victim, ok)
	}
	lpas := f.ValidLPAs(0, victim)
	if len(lpas) != 1 || lpas[0] != 7 {
		t.Fatalf("valid lpas = %v, want [7]", lpas)
	}
}

func TestFTLOnErased(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	for lpa := int64(0); lpa < int64(g.PagesPerBlock); lpa++ {
		f.CommitWrite(lpa, f.AllocPage(0), false)
	}
	// Relocate everything out, then erase.
	victim, _ := f.PickVictim(0)
	for _, lpa := range f.ValidLPAs(0, victim) {
		f.CommitWrite(lpa, f.AllocPage(0), true)
	}
	free := f.FreeBlocks(0)
	f.OnErased(0, victim)
	if f.FreeBlocks(0) != free+1 {
		t.Fatal("erased block not returned to pool")
	}
	if f.GCProgrammed() != uint64(g.PagesPerBlock) {
		t.Fatalf("gc programmed = %d", f.GCProgrammed())
	}
	if f.WAF() <= 1 {
		t.Fatalf("WAF = %v, want > 1 after relocation", f.WAF())
	}
	if err := f.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLEraseValidPanics(t *testing.T) {
	f := newTestFTL()
	f.CommitWrite(0, f.AllocPage(0), false)
	defer func() {
		if recover() == nil {
			t.Fatal("erasing block with valid pages did not panic")
		}
	}()
	f.OnErased(0, 0)
}

func TestFTLAvailablePages(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	total := g.BlocksPerPlane * g.PagesPerBlock
	if f.AvailablePages(0) != total {
		t.Fatalf("fresh available = %d", f.AvailablePages(0))
	}
	f.AllocPage(0)
	if f.AvailablePages(0) != total-1 {
		t.Fatalf("after one alloc = %d", f.AvailablePages(0))
	}
}

func TestFTLLPABoundsPanics(t *testing.T) {
	f := newTestFTL()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range lpa did not panic")
		}
	}()
	f.Lookup(f.LogicalPages())
}

func TestFTLExhaustionPanics(t *testing.T) {
	f := newTestFTL()
	g := f.Geometry()
	for i := 0; i < g.BlocksPerPlane*g.PagesPerBlock; i++ {
		f.AllocPage(0)
	}
	if f.CanAlloc(0) {
		t.Fatal("CanAlloc on exhausted plane")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("alloc on exhausted plane did not panic")
		}
	}()
	f.AllocPage(0)
}

// Property: after any random sequence of writes, overwrites, trims and GC
// rounds, the FTL maps remain a consistent bijection.
func TestFTLConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ftl := newTestFTL()
		g := ftl.Geometry()
		ops := int(opsRaw%300) + 50
		for i := 0; i < ops; i++ {
			plane := rng.Intn(g.Planes())
			switch rng.Intn(10) {
			case 0: // trim
				ftl.Invalidate(rng.Int63n(ftl.LogicalPages()))
			case 1, 2: // GC round if space is short
				if ftl.FreeBlocks(plane) <= 2 {
					if victim, ok := ftl.PickVictim(plane); ok {
						for _, lpa := range ftl.ValidLPAs(plane, victim) {
							if !ftl.CanAlloc(plane) {
								return true // degenerate fill; fine
							}
							ftl.CommitWrite(lpa, ftl.AllocPage(plane), true)
						}
						ftl.OnErased(plane, victim)
					}
				}
			default: // write
				if !ftl.CanAlloc(plane) {
					continue
				}
				lpa := rng.Int63n(ftl.LogicalPages())
				ftl.CommitWrite(lpa, ftl.AllocPage(plane), false)
			}
		}
		return ftl.CheckConsistent() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
