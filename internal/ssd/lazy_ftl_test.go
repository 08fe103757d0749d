package ssd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// eagerFTL is the reference the FTL must match: the translation layer
// with a record for every block of the device from the start, and a FIFO
// free list that holds every erased block, never-opened ones included, in
// id order at build. It also tracks each block's write pointer (the pages
// allocated since its last erase), the media state a crash leaves.
type eagerFTL struct {
	geo     Geometry
	l2p     []int64 // per logical page; unmapped when absent
	p2l     []int64 // per linear page; unmapped when free or stale
	valid   []int32 // per global block
	erases  []int32
	flight  []int32
	retired []bool
	wp      []int
	planes  []eagerPlane

	retiredCount int
	host, gc     uint64
}

type eagerPlane struct {
	free   []int32
	open   [2]int32
	next   [2]int
	full   []int32
	flight int32
}

func newEagerFTL(geo Geometry, logical int64) *eagerFTL {
	e := &eagerFTL{
		geo:     geo,
		l2p:     make([]int64, logical),
		p2l:     make([]int64, geo.TotalPages()),
		valid:   make([]int32, geo.BlocksTotal()),
		erases:  make([]int32, geo.BlocksTotal()),
		flight:  make([]int32, geo.BlocksTotal()),
		retired: make([]bool, geo.BlocksTotal()),
		wp:      make([]int, geo.BlocksTotal()),
		planes:  make([]eagerPlane, geo.Planes()),
	}
	for i := range e.l2p {
		e.l2p[i] = unmapped
	}
	for i := range e.p2l {
		e.p2l[i] = unmapped
	}
	for p := range e.planes {
		pa := &e.planes[p]
		pa.open = [2]int32{-1, -1}
		for b := 0; b < geo.BlocksPerPlane; b++ {
			pa.free = append(pa.free, int32(b))
		}
	}
	return e
}

func (e *eagerFTL) global(plane, block int) int { return plane*e.geo.BlocksPerPlane + block }

func (e *eagerFTL) freeBlocks(plane int) int { return len(e.planes[plane].free) }

func (e *eagerFTL) availablePages(plane int) int {
	pa := &e.planes[plane]
	n := len(pa.free) * e.geo.PagesPerBlock
	for s := range pa.open {
		if pa.open[s] >= 0 {
			n += e.geo.PagesPerBlock - pa.next[s]
		}
	}
	return n
}

func (e *eagerFTL) canAlloc(plane int) bool {
	return e.planes[plane].open[HotStream] >= 0 || len(e.planes[plane].free) > 0
}

// alloc opens the first least-erased block of the free list when the
// stream has none open.
func (e *eagerFTL) alloc(plane int, stream Stream) int64 {
	pa := &e.planes[plane]
	s := int(stream)
	if pa.open[s] < 0 {
		if len(pa.free) == 0 {
			if stream != ColdStream || pa.open[HotStream] < 0 {
				panic("eager: plane out of blocks")
			}
			s = int(HotStream)
		} else {
			best := 0
			for i := 1; i < len(pa.free); i++ {
				if e.erases[e.global(plane, int(pa.free[i]))] < e.erases[e.global(plane, int(pa.free[best]))] {
					best = i
				}
			}
			pa.open[s] = pa.free[best]
			pa.free = slices.Delete(pa.free, best, best+1)
			pa.next[s] = 0
		}
	}
	g := e.global(plane, int(pa.open[s]))
	lin := int64(g)*int64(e.geo.PagesPerBlock) + int64(pa.next[s])
	e.wp[g]++
	pa.next[s]++
	if pa.next[s] == e.geo.PagesPerBlock {
		pa.full = append(pa.full, pa.open[s])
		pa.open[s] = -1
	}
	return lin
}

func (e *eagerFTL) block(lin int64) int { return int(lin / int64(e.geo.PagesPerBlock)) }

func (e *eagerFTL) commit(lpa, lin int64, gc bool) {
	if e.p2l[lin] != unmapped {
		panic("eager: commit to a valid page")
	}
	if old := e.l2p[lpa]; old != unmapped {
		e.p2l[old] = unmapped
		e.valid[e.block(old)]--
	}
	e.l2p[lpa] = lin
	e.p2l[lin] = lpa
	e.valid[e.block(lin)]++
	if gc {
		e.gc++
	} else {
		e.host++
	}
}

func (e *eagerFTL) invalidate(lpa int64) {
	if old := e.l2p[lpa]; old != unmapped {
		e.p2l[old] = unmapped
		e.valid[e.block(old)]--
		e.l2p[lpa] = unmapped
	}
}

func (e *eagerFTL) begin(plane int, lin int64) {
	e.flight[e.block(lin)]++
	e.planes[plane].flight++
}

func (e *eagerFTL) end(plane int, lin int64) {
	e.flight[e.block(lin)]--
	e.planes[plane].flight--
}

func (e *eagerFTL) pickVictim(plane int) (int, bool) {
	pa := &e.planes[plane]
	best := -1
	for i, b := range pa.full {
		g := e.global(plane, int(b))
		if e.flight[g] > 0 {
			continue
		}
		if best < 0 || e.valid[g] < e.valid[e.global(plane, int(pa.full[best]))] {
			best = i
		}
	}
	if best < 0 || int(e.valid[e.global(plane, int(pa.full[best]))]) == e.geo.PagesPerBlock {
		return 0, false
	}
	b := pa.full[best]
	pa.full = slices.Delete(pa.full, best, best+1)
	return int(b), true
}

func (e *eagerFTL) takeBlock(plane, block int) bool {
	pa := &e.planes[plane]
	if i := slices.Index(pa.full, int32(block)); i >= 0 {
		pa.full = slices.Delete(pa.full, i, i+1)
		return true
	}
	return false
}

func (e *eagerFTL) validLPAs(plane, block int) []int64 {
	var lpas []int64
	start := int64(e.global(plane, block)) * int64(e.geo.PagesPerBlock)
	for p := 0; p < e.geo.PagesPerBlock; p++ {
		if lpa := e.p2l[start+int64(p)]; lpa != unmapped {
			lpas = append(lpas, lpa)
		}
	}
	return lpas
}

func (e *eagerFTL) dropBlock(plane, block int) {
	start := int64(e.global(plane, block)) * int64(e.geo.PagesPerBlock)
	for p := 0; p < e.geo.PagesPerBlock; p++ {
		e.p2l[start+int64(p)] = unmapped
	}
}

func (e *eagerFTL) retire(plane, block int) {
	e.dropBlock(plane, block)
	e.retired[e.global(plane, block)] = true
	e.retiredCount++
}

func (e *eagerFTL) onErased(plane, block int) {
	e.dropBlock(plane, block)
	g := e.global(plane, block)
	e.erases[g]++
	e.wp[g] = 0
	e.planes[plane].free = append(e.planes[plane].free, int32(block))
}

// recovered is the reference rebuild after a crash: every block's P/E
// count from the media, the committed map replayed in lpa order, and the
// allocation lists rebuilt over every block in id order (an unwritten
// block is free, a written one full). A lost plane's mappings drop and its
// blocks retire.
func (e *eagerFTL) recovered(media func(plane, block int) (int, int), lost func(plane int) bool) *eagerFTL {
	r := newEagerFTL(e.geo, int64(len(e.l2p)))
	for lpa, lin := range e.l2p {
		if lin == unmapped {
			continue
		}
		g := e.block(lin)
		if lost(g / e.geo.BlocksPerPlane) {
			continue
		}
		r.l2p[lpa] = lin
		r.p2l[lin] = int64(lpa)
		r.valid[g]++
	}
	for p := range r.planes {
		pa := &r.planes[p]
		pa.free = pa.free[:0]
		for b := 0; b < e.geo.BlocksPerPlane; b++ {
			g := e.global(p, b)
			wp, erases := media(p, b)
			r.erases[g] = int32(erases)
			r.wp[g] = wp
			if e.retired[g] || lost(p) {
				r.retired[g] = true
				r.retiredCount++
				continue
			}
			if wp == 0 {
				pa.free = append(pa.free, int32(b))
			} else {
				pa.full = append(pa.full, int32(b))
			}
		}
	}
	r.host, r.gc = e.host, e.gc
	return r
}

// compareFTLs reports the first difference between the FTL and the
// reference: every per-block count, every plane's allocation state, every
// logical mapping and the FTL's own consistency check.
func compareFTLs(f *FTL, e *eagerFTL) error {
	geo := e.geo
	for p := 0; p < geo.Planes(); p++ {
		pa, ea := &f.planes[p], &e.planes[p]
		if got, want := f.FreeBlocks(p), e.freeBlocks(p); got != want {
			return fmt.Errorf("plane %d: %d free blocks, reference %d", p, got, want)
		}
		if got, want := f.AvailablePages(p), e.availablePages(p); got != want {
			return fmt.Errorf("plane %d: %d available pages, reference %d", p, got, want)
		}
		if got, want := f.CanAlloc(p), e.canAlloc(p); got != want {
			return fmt.Errorf("plane %d: CanAlloc %v, reference %v", p, got, want)
		}
		if got, want := f.InflightPrograms(p), int(ea.flight); got != want {
			return fmt.Errorf("plane %d: %d in-flight programs, reference %d", p, got, want)
		}
		if pa.open != ea.open || pa.next != ea.next || !slices.Equal(pa.full, ea.full) {
			return fmt.Errorf("plane %d: open %v next %v full %v, reference %v %v %v",
				p, pa.open, pa.next, pa.full, ea.open, ea.next, ea.full)
		}
		for b := 0; b < geo.BlocksPerPlane; b++ {
			g := e.global(p, b)
			var flight int32
			if b < len(pa.blocks) {
				flight = pa.blocks[b].inflight
			}
			if f.ValidCount(p, b) != int(e.valid[g]) || blockErases(f, p, b) != int(e.erases[g]) ||
				flight != e.flight[g] || f.Retired(p, b) != e.retired[g] {
				return fmt.Errorf("block %d/%d: valid %d erases %d inflight %d retired %v, reference %d %d %d %v",
					p, b, f.ValidCount(p, b), blockErases(f, p, b), flight, f.Retired(p, b),
					e.valid[g], e.erases[g], e.flight[g], e.retired[g])
			}
			if got, want := f.ValidLPAs(p, b), e.validLPAs(p, b); !slices.Equal(got, want) {
				return fmt.Errorf("block %d/%d: valid lpas %v, reference %v", p, b, got, want)
			}
		}
	}
	for lpa, want := range e.l2p {
		if got := f.lookupLinear(int64(lpa)); got != want {
			return fmt.Errorf("lpa %d maps to %d, reference %d", lpa, got, want)
		}
	}
	if f.RetiredBlocks() != e.retiredCount || f.HostProgrammed() != e.host || f.GCProgrammed() != e.gc {
		return fmt.Errorf("retired %d host %d gc %d, reference %d %d %d",
			f.RetiredBlocks(), f.HostProgrammed(), f.GCProgrammed(), e.retiredCount, e.host, e.gc)
	}
	if f.MappedPages() != int64(countMapped(e.l2p)) {
		return fmt.Errorf("%d mapped pages, reference %d", f.MappedPages(), countMapped(e.l2p))
	}
	return f.CheckConsistent()
}

func countMapped(l2p []int64) int {
	n := 0
	for _, lin := range l2p {
		if lin != unmapped {
			n++
		}
	}
	return n
}

// program is a program issued to a page and not yet completed.
type program struct {
	plane    int
	lpa, lin int64
	gc       bool
	old      int64 // a relocation's source page; it commits only if lpa still maps there
}

// TestLazyFTLMatchesEagerReference drives the FTL and the eager reference
// through the same random writes, in-flight programs, trims, GC rounds,
// block retirements and crash recoveries (some losing a die), and
// compares every allocated physical address, victim and relocation list
// as it is returned, and every per-block count after each operation.
func TestLazyFTLMatchesEagerReference(t *testing.T) {
	cases := []struct {
		geo        Geometry
		seeds, ops int
	}{
		{testGeo(), 12, 1500},
		{Geometry{Channels: 1, DiesPerChannel: 2, PlanesPerDie: 2, BlocksPerPlane: 6, PagesPerBlock: 32, PageSize: 16384}, 12, 1500},
		{Geometry{Channels: 1, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerPlane: 4, PagesPerBlock: 256, PageSize: 16384}, 3, 6000},
	}
	var total driveCounts
	for gi, c := range cases {
		var n driveCounts
		for seed := int64(1); seed <= int64(c.seeds); seed++ {
			t.Run(fmt.Sprintf("geo%d/seed%d", gi, seed), func(t *testing.T) {
				driveLazyAndEager(t, c.geo, seed, c.ops, &n)
			})
		}
		t.Logf("geometry %d: %+v", gi, n)
		total.erases += n.erases
		total.retired += n.retired
		total.recoveries += n.recoveries
		total.unwritten += n.unwritten
		total.lostDies += n.lostDies
	}
	if total.erases == 0 || total.retired == 0 || total.recoveries == 0 || total.unwritten == 0 || total.lostDies == 0 {
		t.Errorf("a kind of operation never ran: %+v", total)
	}
}

// driveCounts tallies the operations a differential run reached.
type driveCounts struct {
	erases, retired, recoveries, unwritten, lostDies int
}

func driveLazyAndEager(t *testing.T, geo Geometry, seed int64, ops int, n *driveCounts) {
	rng := rand.New(rand.NewSource(seed))
	logical := geo.TotalPages() * 5 / 8
	f, e := NewFTL(geo, logical), newEagerFTL(geo, logical)
	var pending []program
	lostPlanes := map[int]bool{}

	alloc := func(plane int, stream Stream) int64 {
		got, want := f.allocPage(plane, stream), e.alloc(plane, stream)
		if got != want {
			t.Fatalf("alloc on plane %d stream %d: page %d, reference %d", plane, stream, got, want)
		}
		return got
	}
	// relocate moves a taken block's valid pages within its plane, as GC
	// and retirement do, committing each copy at once.
	relocate := func(plane, block int) {
		got, want := f.ValidLPAs(plane, block), e.validLPAs(plane, block)
		if !slices.Equal(got, want) {
			t.Fatalf("valid lpas of %d/%d: %v, reference %v", plane, block, got, want)
		}
		for _, lpa := range got {
			lin := alloc(plane, ColdStream)
			f.commit(lpa, lin, true)
			e.commit(lpa, lin, true)
		}
	}
	complete := func(i int) {
		pr := pending[i]
		pending = slices.Delete(pending, i, i+1)
		f.endProgram(pr.plane, pr.lin)
		e.end(pr.plane, pr.lin)
		if pr.gc && e.l2p[pr.lpa] != pr.old {
			return // superseded while in flight: the copy is garbage
		}
		f.commit(pr.lpa, pr.lin, pr.gc)
		e.commit(pr.lpa, pr.lin, pr.gc)
	}

	for i := 0; i < ops; i++ {
		plane := rng.Intn(geo.Planes())
		switch k := rng.Intn(20); {
		case k < 8: // write, committed at once or left in flight
			if lostPlanes[plane] || e.availablePages(plane) <= geo.PagesPerBlock || !e.canAlloc(plane) {
				break
			}
			lpa := rng.Int63n(logical)
			lin := alloc(plane, HotStream)
			f.beginProgram(plane, lin)
			e.begin(plane, lin)
			pending = append(pending, program{plane: plane, lpa: lpa, lin: lin})
			if rng.Intn(3) > 0 {
				complete(len(pending) - 1)
			}
		case k < 10: // an in-flight relocation copy of a mapped page
			lpa := rng.Int63n(logical)
			old := e.l2p[lpa]
			if old == unmapped {
				break
			}
			p := e.block(old) / geo.BlocksPerPlane
			if e.availablePages(p) <= geo.PagesPerBlock {
				break
			}
			lin := alloc(p, ColdStream)
			f.beginProgram(p, lin)
			e.begin(p, lin)
			pending = append(pending, program{plane: p, lpa: lpa, lin: lin, gc: true, old: old})
		case k < 13: // complete a program
			if len(pending) > 0 {
				complete(rng.Intn(len(pending)))
			}
		case k < 15: // trim
			lpa := rng.Int63n(logical)
			f.Invalidate(lpa)
			e.invalidate(lpa)
		case k < 18: // GC round
			if e.availablePages(plane) < geo.PagesPerBlock {
				break
			}
			got, gotOK := f.PickVictim(plane)
			want, wantOK := e.pickVictim(plane)
			if got != want || gotOK != wantOK {
				t.Fatalf("victim of plane %d: %d %v, reference %d %v", plane, got, gotOK, want, wantOK)
			}
			if gotOK {
				relocate(plane, got)
				f.OnErased(plane, got)
				n.erases++
				e.onErased(plane, got)
			}
		case k < 19: // retire a full block with nothing in flight
			block := rng.Intn(geo.BlocksPerPlane)
			g := e.global(plane, block)
			if e.flight[g] > 0 || e.availablePages(plane) < geo.PagesPerBlock {
				break
			}
			got, want := f.TakeBlock(plane, block), e.takeBlock(plane, block)
			if got != want {
				t.Fatalf("take %d/%d: %v, reference %v", plane, block, got, want)
			}
			if got {
				relocate(plane, block)
				f.RetireBlock(plane, block)
				n.retired++
				e.retire(plane, block)
			}
		default: // crash and recover, sometimes losing a die
			if rng.Intn(8) > 0 {
				break
			}
			// A block whose every allocated page was torn may read back
			// unwritten: the rebuilt plane then lists a free block with
			// no erases below its mark.
			unwritten := map[int]bool{}
			for _, pr := range pending {
				g := e.block(pr.lin)
				if e.valid[g] == 0 && rng.Intn(2) == 0 {
					unwritten[g] = true
					n.unwritten++
				}
			}
			media := func(p, b int) (int, int) {
				g := e.global(p, b)
				if unwritten[g] {
					return 0, int(e.erases[g])
				}
				return e.wp[g], int(e.erases[g])
			}
			if len(lostPlanes) == 0 && rng.Intn(3) == 0 {
				n.lostDies++
				first := rng.Intn(geo.Dies()) * geo.PlanesPerDie
				for p := first; p < first+geo.PlanesPerDie; p++ {
					lostPlanes[p] = true
				}
			}
			lost := func(p int) bool { return lostPlanes[p] }
			nf := NewFTL(geo, logical)
			if _, _, err := nf.recoverFrom(f, media, lost); err != nil {
				t.Fatalf("op %d: recover: %v", i, err)
			}
			f, e = nf, e.recovered(media, lost)
			n.recoveries++
			pending = pending[:0]
		}
		if err := compareFTLs(f, e); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}
