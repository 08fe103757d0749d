package ssd

import (
	"fmt"
	"math/bits"
)

const unmapped = int64(-1)

// l2pChunkBits sizes the chunks of the logical map. A simulated window
// preloads logical pages 0..n-1 densely, so small chunks hold it with
// little zeroing past its end.
const l2pChunkBits = 10

// p2lChunkBits sizes the chunks of the reverse map to at most one block
// and at most 2^8 entries. A plane fills one block at a time, so a
// preload materialises about one chunk per block it opens instead of a
// chunk spanning several planes.
func p2lChunkBits(pagesPerBlock int) uint {
	return uint(min(bits.Len(uint(pagesPerBlock))-1, 8))
}

// pageMap is a sparse array of page numbers defaulting to unmapped, whose
// cost scales with the blocks a run touches rather than with the device.
// A freshly built device maps nothing and a design point touches only its
// window, so chunks materialise on first write.
//
// The map holds no pointers: dir has one uint32 per chunk, holding the
// chunk's index in slab plus one (0 means absent, every entry unmapped),
// and slab holds the materialised chunks back to back, growing by one
// chunk on first write. Entries are uint32 biased by +1, so the zero
// value of a fresh chunk already means unmapped; the bias caps a device
// (or its logical space) at 2^32-2 pages, checked at build.
//
// NewFTL reserves slab room for the first chunk each plane opens, so a
// preload never regrows it. NewDevice plus the preload of a GPT-13B
// 128-unit colocated window allocates 0.06 / 0.48 / 0.95 MiB at 1 / 8 / 16
// channels; the former 2^15-entry chunks, one per pair of planes touched,
// made that 1.17 / 8.44 / 16.75 MiB.
type pageMap struct {
	bits uint     // log2 of the entries per chunk
	dir  []uint32 // slab chunk index + 1 per chunk; 0 = absent
	slab []uint32 // materialised chunks, entries biased by +1
}

// newPageMap builds a map over n entries in chunks of 2^chunkBits, with room
// in the slab for reserve chunks before it first grows.
func newPageMap(n int64, chunkBits uint, reserve int) pageMap {
	if n >= 1<<32-1 {
		panic(fmt.Sprintf("ssd: page map over %d pages exceeds uint32 encoding", n))
	}
	return pageMap{
		bits: chunkBits,
		dir:  make([]uint32, (n+1<<chunkBits-1)>>chunkBits),
		slab: make([]uint32, 0, reserve<<chunkBits),
	}
}

func (m *pageMap) get(i int64) int64 {
	c := m.dir[i>>m.bits]
	if c == 0 {
		return unmapped
	}
	return int64(m.slab[int64(c-1)<<m.bits|i&(1<<m.bits-1)]) - 1
}

func (m *pageMap) set(i, v int64) {
	ci := i >> m.bits
	c := m.dir[ci]
	if c == 0 {
		if v == unmapped {
			return
		}
		c = uint32(len(m.slab)>>m.bits) + 1
		//simlint:allow hotalloc a chunk materialises on its first write; later writes reuse it
		m.slab = append(m.slab, make([]uint32, 1<<m.bits)...)
		m.dir[ci] = c
	}
	m.slab[int64(c-1)<<m.bits|i&(1<<m.bits-1)] = uint32(v + 1)
}

// forEach visits every mapped entry in index order, skipping absent
// chunks wholesale.
func (m *pageMap) forEach(fn func(i, v int64)) {
	for ci, c := range m.dir {
		if c == 0 {
			continue
		}
		off := int(c-1) << m.bits
		base := int64(ci) << m.bits
		for j, v := range m.slab[off : off+1<<m.bits] {
			if v != 0 {
				fn(base+int64(j), int64(v)-1)
			}
		}
	}
}

// FTL is a page-level log-structured flash translation layer. It owns the
// logical→physical map, per-plane write frontiers, per-block valid counts,
// and the bookkeeping half of garbage collection. It performs no simulated
// I/O itself — the Device drives NAND timing and calls in here for
// allocation and mapping decisions, so the FTL is directly unit-testable.
type FTL struct {
	geo          Geometry
	dec          decoder
	logicalPages int64

	l2p        pageMap // logical page -> linear PPA, or unmapped
	p2l        pageMap // linear PPA -> logical page, or unmapped (free/stale)
	validCount []int32 // valid pages per global block
	erases     []int32 // P/E cycles per global block (FTL's own tally)

	// In-flight (issued, not yet committed) programs per global block, with
	// per-plane totals. A block with in-flight programs must not be erased:
	// the mapping commits at program completion, and erasing out from under
	// it would either destroy the data racing toward the block or let the
	// commit land in an erased block.
	inflight      []int32
	inflightPlane []int32

	retired      []bool // blocks permanently out of circulation
	retiredCount int

	planes []planeAlloc

	// Write-amplification accounting.
	hostProgrammed uint64
	gcProgrammed   uint64
}

// Stream tags an allocation with its data temperature so the FTL can keep
// hot (freshly written, soon re-invalidated) and cold (GC-relocated,
// long-lived) pages in separate blocks — the standard hot/cold separation
// that keeps victim blocks either mostly stale or mostly valid instead of
// an expensive mix.
type Stream int

// Allocation streams.
const (
	HotStream  Stream = 0 // host writes and in-storage updates
	ColdStream Stream = 1 // GC relocations
)

// planeAlloc is the allocation state of one plane: a FIFO of erased blocks,
// per-stream open blocks being filled, and full blocks awaiting GC.
type planeAlloc struct {
	free []int32  // erased, ready to open
	open [2]int32 // filling, per stream; -1 when none
	next [2]int   // next page within open, per stream
	full []int32  // completely written blocks
}

// NewFTL builds an FTL over the geometry exposing logicalPages of capacity.
func NewFTL(geo Geometry, logicalPages int64) *FTL {
	total := geo.TotalPages()
	if logicalPages <= 0 || logicalPages > total {
		panic(fmt.Sprintf("ssd: logical pages %d vs physical %d", logicalPages, total))
	}
	f := &FTL{
		geo:           geo,
		logicalPages:  logicalPages,
		l2p:           newPageMap(logicalPages, l2pChunkBits, 1),
		p2l:           newPageMap(total, p2lChunkBits(geo.PagesPerBlock), geo.Planes()),
		validCount:    make([]int32, geo.BlocksTotal()),
		erases:        make([]int32, geo.BlocksTotal()),
		inflight:      make([]int32, geo.BlocksTotal()),
		inflightPlane: make([]int32, geo.Planes()),
		retired:       make([]bool, geo.BlocksTotal()),
		planes:        make([]planeAlloc, geo.Planes()),
	}
	f.dec = newDecoder(geo)
	for p := range f.planes {
		pa := &f.planes[p]
		pa.open[HotStream] = -1
		pa.open[ColdStream] = -1
		pa.free = make([]int32, geo.BlocksPerPlane)
		for b := range pa.free {
			pa.free[b] = int32(b)
		}
	}
	return f
}

// Geometry returns the device geometry.
func (f *FTL) Geometry() Geometry { return f.geo }

// LogicalPages returns the exposed capacity in pages.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// Lookup translates a logical page; ok is false when the page was never
// written (or was trimmed).
func (f *FTL) Lookup(lpa int64) (PPA, bool) {
	lin := f.lookupLinear(lpa)
	if lin == unmapped {
		return PPA{}, false
	}
	return f.dec.ppa(lin), true
}

// lookupLinear translates a logical page to its linear physical page, or
// unmapped.
func (f *FTL) lookupLinear(lpa int64) int64 {
	f.checkLPA(lpa)
	return f.l2p.get(lpa)
}

func (f *FTL) checkLPA(lpa int64) {
	if lpa < 0 || lpa >= f.logicalPages {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: lpa %d outside logical capacity %d", lpa, f.logicalPages))
	}
}

// FreeBlocks returns the number of erased blocks available in a plane.
func (f *FTL) FreeBlocks(planeIdx int) int { return len(f.planes[planeIdx].free) }

// AvailablePages returns the number of pages that can still be allocated
// in the plane without reclaiming space: the remainders of the open blocks
// plus all free blocks.
func (f *FTL) AvailablePages(planeIdx int) int {
	pa := &f.planes[planeIdx]
	n := len(pa.free) * f.geo.PagesPerBlock
	for s := range pa.open {
		if pa.open[s] >= 0 {
			n += f.geo.PagesPerBlock - pa.next[s]
		}
	}
	return n
}

// CanAlloc reports whether AllocPage on the plane would succeed for the
// hot stream.
func (f *FTL) CanAlloc(planeIdx int) bool {
	pa := &f.planes[planeIdx]
	return pa.open[HotStream] >= 0 || len(pa.free) > 0
}

// AllocPage claims the next hot-stream page of the plane's write frontier.
// It panics when the plane has no open or free block — the Device must
// garbage collect (or backpressure) before exhaustion, checked via
// CanAlloc.
func (f *FTL) AllocPage(planeIdx int) PPA {
	return f.AllocPageStream(planeIdx, HotStream)
}

// AllocPageStream claims the next page of the given stream's write
// frontier. Keeping GC relocations (cold) out of the host/update (hot)
// blocks is the hot/cold separation that stops victim blocks from mixing
// long-lived and short-lived pages. A cold-stream allocation falls back to
// the hot open block when no free block exists to open.
func (f *FTL) AllocPageStream(planeIdx int, stream Stream) PPA {
	return f.dec.ppa(f.allocPage(planeIdx, stream))
}

// allocPage is AllocPageStream returning the page's linear index.
func (f *FTL) allocPage(planeIdx int, stream Stream) int64 {
	pa := &f.planes[planeIdx]
	s := int(stream)
	if pa.open[s] < 0 {
		if len(pa.free) == 0 {
			// Cold stream may borrow the hot open block rather than wedge.
			if stream == ColdStream && pa.open[HotStream] >= 0 {
				s = int(HotStream)
			} else {
				//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
				panic(fmt.Sprintf("ssd: plane %d out of blocks", planeIdx))
			}
		} else {
			// Wear-aware selection: open the least-erased free block (ties
			// to the lowest block id, keeping runs deterministic). This is
			// the dynamic half of wear levelling.
			base := planeIdx * f.geo.BlocksPerPlane
			best := 0
			for i := 1; i < len(pa.free); i++ {
				if f.erases[base+int(pa.free[i])] < f.erases[base+int(pa.free[best])] {
					best = i
				}
			}
			pa.open[s] = pa.free[best]
			//simlint:allow hotalloc in-place removal; never grows
			pa.free = append(pa.free[:best], pa.free[best+1:]...)
			pa.next[s] = 0
		}
	}
	lin := f.blockStart(planeIdx, int(pa.open[s])) + int64(pa.next[s])
	pa.next[s]++
	if pa.next[s] == f.geo.PagesPerBlock {
		//simlint:allow hotalloc amortized growth, bounded by the plane's block count
		pa.full = append(pa.full, pa.open[s])
		pa.open[s] = -1
	}
	return lin
}

// CommitWrite binds lpa to a freshly allocated ppa, invalidating any prior
// mapping. Host writes and GC relocations are tallied separately for
// write-amplification reporting.
func (f *FTL) CommitWrite(lpa int64, ppa PPA, gc bool) { f.commit(lpa, f.geo.Linear(ppa), gc) }

// commit is CommitWrite to the linear page lin.
func (f *FTL) commit(lpa, lin int64, gc bool) {
	f.checkLPA(lpa)
	if f.p2l.get(lin) != unmapped {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: commit to already-valid page %v", f.dec.ppa(lin)))
	}
	if old := f.l2p.get(lpa); old != unmapped {
		f.p2l.set(old, unmapped)
		f.validCount[f.dec.block(old)]--
	}
	f.l2p.set(lpa, lin)
	f.p2l.set(lin, lpa)
	f.validCount[f.dec.block(lin)]++
	if gc {
		f.gcProgrammed++
	} else {
		f.hostProgrammed++
	}
}

// Invalidate trims a logical page, dropping its mapping if present.
func (f *FTL) Invalidate(lpa int64) {
	f.checkLPA(lpa)
	if old := f.l2p.get(lpa); old != unmapped {
		f.p2l.set(old, unmapped)
		f.validCount[f.dec.block(old)]--
		f.l2p.set(lpa, unmapped)
	}
}

// beginProgram records a program issued to the linear page lin of plane
// whose mapping will commit at completion (endProgram). The FTL refuses
// to pick blocks with in-flight programs as GC victims while the count is
// nonzero.
func (f *FTL) beginProgram(plane int, lin int64) {
	f.inflight[f.dec.block(lin)]++
	f.inflightPlane[plane]++
}

// endProgram retires a beginProgram record when the program completes
// (or completes stale, in which case no mapping is committed).
func (f *FTL) endProgram(plane int, lin int64) {
	b := f.dec.block(lin)
	f.inflight[b]--
	f.inflightPlane[plane]--
	if f.inflight[b] < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: endProgram without beginProgram on %v", f.dec.ppa(lin)))
	}
}

// InflightPrograms returns the number of issued-but-uncommitted programs
// targeting the plane.
func (f *FTL) InflightPrograms(planeIdx int) int {
	return int(f.inflightPlane[planeIdx])
}

// PickVictim removes and returns the full block with the fewest valid
// pages in the plane (greedy policy). ok is false when no eligible full
// block exists or the best candidate is entirely valid — erasing an
// all-valid block reclaims nothing and would make GC churn forever.
// Blocks with in-flight programs are ineligible (see beginProgram).
func (f *FTL) PickVictim(planeIdx int) (block int, ok bool) {
	pa := &f.planes[planeIdx]
	base := planeIdx * f.geo.BlocksPerPlane
	best := -1
	for i := 0; i < len(pa.full); i++ {
		if f.inflight[base+int(pa.full[i])] > 0 {
			continue
		}
		if best < 0 || f.validCount[base+int(pa.full[i])] < f.validCount[base+int(pa.full[best])] {
			best = i
		}
	}
	if best < 0 || int(f.validCount[base+int(pa.full[best])]) == f.geo.PagesPerBlock {
		return 0, false
	}
	b := pa.full[best]
	//simlint:allow hotalloc in-place removal; never grows
	pa.full = append(pa.full[:best], pa.full[best+1:]...)
	return int(b), true
}

// TakeBlock removes a block from the plane's full list without erasing it
// — the first step of retirement. It returns false when the block is not
// currently in the full list (free, open, or already claimed by GC as a
// victim); retirement is then deferred until the block next fills.
func (f *FTL) TakeBlock(planeIdx, block int) bool {
	pa := &f.planes[planeIdx]
	for i, b := range pa.full {
		if int(b) == block {
			//simlint:allow hotalloc in-place removal; never grows
			pa.full = append(pa.full[:i], pa.full[i+1:]...)
			return true
		}
	}
	return false
}

// RetireBlock marks a block permanently out of circulation. The caller
// must have removed it from the allocation lists (TakeBlock) and relocated
// its valid pages first.
func (f *FTL) RetireBlock(planeIdx, block int) {
	g := planeIdx*f.geo.BlocksPerPlane + block
	if f.retired[g] {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: block %d/%d retired twice", planeIdx, block))
	}
	if n := f.validCount[g]; n != 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: retiring block %d/%d with %d valid pages", planeIdx, block, n))
	}
	if f.inflight[g] != 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: retiring block %d/%d with in-flight programs", planeIdx, block))
	}
	// Drop stale reverse mappings so the retired block holds nothing.
	start := f.blockStart(planeIdx, block)
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		f.p2l.set(start+int64(p), unmapped)
	}
	f.retired[g] = true
	f.retiredCount++
}

// Retired reports whether a plane's block has been retired.
func (f *FTL) Retired(planeIdx, block int) bool {
	return f.retired[planeIdx*f.geo.BlocksPerPlane+block]
}

// RetiredBlocks returns the total number of retired blocks.
func (f *FTL) RetiredBlocks() int { return f.retiredCount }

// MappedPages returns the number of logical pages currently mapped.
func (f *FTL) MappedPages() int64 {
	var n int64
	for _, c := range f.validCount {
		n += int64(c)
	}
	return n
}

// NthMappedLPA returns the k-th (mod count) mapped logical page in lpa
// order, or ok=false when nothing is mapped. Fault injection uses it to
// pick a deterministic victim page from a seed without knowing the
// workload's footprint.
func (f *FTL) NthMappedLPA(k int64) (lpa int64, ok bool) {
	total := f.MappedPages()
	if total == 0 {
		return 0, false
	}
	k %= total
	if k < 0 {
		k += total
	}
	f.l2p.forEach(func(l, _ int64) {
		if ok {
			return
		}
		if k == 0 {
			lpa, ok = l, true
			return
		}
		k--
	})
	return lpa, ok
}

// ValidPagesOnDie sums the valid pages mapped to one die — the data a die
// failure would take out.
func (f *FTL) ValidPagesOnDie(ch, die int) int64 {
	var n int64
	for p := 0; p < f.geo.PlanesPerDie; p++ {
		base := f.geo.PlaneIndex(ch, die, p) * f.geo.BlocksPerPlane
		for b := 0; b < f.geo.BlocksPerPlane; b++ {
			n += int64(f.validCount[base+b])
		}
	}
	return n
}

// restoreMapping installs lpa→ppa during crash-recovery replay: same map
// updates as CommitWrite but with no displacement (the rebuilt maps start
// empty) and no program tallies (the programs happened before the crash).
func (f *FTL) restoreMapping(lpa int64, ppa PPA) {
	f.checkLPA(lpa)
	lin := f.geo.Linear(ppa)
	if f.p2l.get(lin) != unmapped {
		panic(fmt.Sprintf("ssd: recovery maps two lpas to %v", ppa))
	}
	if f.l2p.get(lpa) != unmapped {
		panic(fmt.Sprintf("ssd: recovery maps lpa %d twice", lpa))
	}
	f.l2p.set(lpa, lin)
	f.p2l.set(lin, lpa)
	f.validCount[f.geo.BlockIndex(ppa)]++
}

// ValidLPAs returns the logical pages still valid in a plane's block, in
// physical page order — the relocation work list for GC.
func (f *FTL) ValidLPAs(planeIdx, block int) []int64 {
	return f.appendValidLPAs(nil, planeIdx, block)
}

// blockStart returns the linear index of the first page of a plane's
// block.
func (f *FTL) blockStart(planeIdx, block int) int64 {
	return int64(planeIdx*f.geo.BlocksPerPlane+block) * int64(f.geo.PagesPerBlock)
}

// appendValidLPAs appends ValidLPAs(planeIdx, block) to dst.
func (f *FTL) appendValidLPAs(dst []int64, planeIdx, block int) []int64 {
	start := f.blockStart(planeIdx, block)
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		if lpa := f.p2l.get(start + int64(p)); lpa != unmapped {
			//simlint:allow hotalloc amortized growth of a relocation record's resident list; reused across victims
			dst = append(dst, lpa)
		}
	}
	return dst
}

// ValidCount returns the number of valid pages in a plane's block.
func (f *FTL) ValidCount(planeIdx, block int) int {
	return int(f.validCount[planeIdx*f.geo.BlocksPerPlane+block])
}

// OnErased returns a block to the plane's free pool after the Device has
// erased it. The block must hold no valid pages.
func (f *FTL) OnErased(planeIdx, block int) {
	if n := f.ValidCount(planeIdx, block); n != 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: erasing block %d/%d with %d valid pages", planeIdx, block, n))
	}
	if f.Retired(planeIdx, block) {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: erasing retired block %d/%d", planeIdx, block))
	}
	// Drop stale reverse mappings for the erased block.
	start := f.blockStart(planeIdx, block)
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		f.p2l.set(start+int64(p), unmapped)
	}
	f.erases[planeIdx*f.geo.BlocksPerPlane+block]++
	//simlint:allow hotalloc amortized growth, bounded by the plane's block count
	f.planes[planeIdx].free = append(f.planes[planeIdx].free, int32(block))
}

// BlockErases returns the FTL's P/E tally for a plane's block.
func (f *FTL) BlockErases(planeIdx, block int) int {
	return int(f.erases[planeIdx*f.geo.BlocksPerPlane+block])
}

// WearSpread returns the min and max P/E count across a plane's blocks —
// the quantity wear levelling exists to bound.
func (f *FTL) WearSpread(planeIdx int) (min, max int) {
	base := planeIdx * f.geo.BlocksPerPlane
	min = int(f.erases[base])
	max = min
	for b := 1; b < f.geo.BlocksPerPlane; b++ {
		e := int(f.erases[base+b])
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}

// HostProgrammed and GCProgrammed return the page-program tallies; their
// ratio is the write-amplification factor.
func (f *FTL) HostProgrammed() uint64 { return f.hostProgrammed }

// GCProgrammed returns the relocation program count.
func (f *FTL) GCProgrammed() uint64 { return f.gcProgrammed }

// WAF returns the write-amplification factor (total programs per host
// program), or 1 before any host write.
func (f *FTL) WAF() float64 {
	if f.hostProgrammed == 0 {
		return 1
	}
	return float64(f.hostProgrammed+f.gcProgrammed) / float64(f.hostProgrammed)
}

// CheckConsistent verifies the FTL invariants: l2p/p2l are inverse
// bijections on mapped pages and validCount matches the reverse map. Used
// by property tests; O(total pages).
func (f *FTL) CheckConsistent() error {
	counts := make([]int32, len(f.validCount))
	var err error
	f.p2l.forEach(func(lin, lpa int64) {
		if err != nil {
			return
		}
		if lpa < 0 || lpa >= f.logicalPages {
			err = fmt.Errorf("p2l[%d] = %d out of range", lin, lpa)
			return
		}
		if got := f.l2p.get(lpa); got != lin {
			err = fmt.Errorf("p2l[%d]=%d but l2p[%d]=%d", lin, lpa, lpa, got)
			return
		}
		counts[f.dec.block(lin)]++
	})
	if err != nil {
		return err
	}
	f.l2p.forEach(func(lpa, lin int64) {
		if err != nil {
			return
		}
		if got := f.p2l.get(lin); got != lpa {
			err = fmt.Errorf("l2p[%d]=%d but p2l[%d]=%d", lpa, lin, lin, got)
		}
	})
	if err != nil {
		return err
	}
	for b := range counts {
		if counts[b] != f.validCount[b] {
			return fmt.Errorf("block %d validCount %d, recount %d", b, f.validCount[b], counts[b])
		}
		if f.retired[b] && (f.validCount[b] != 0 || f.inflight[b] != 0) {
			return fmt.Errorf("retired block %d has valid=%d inflight=%d",
				b, f.validCount[b], f.inflight[b])
		}
	}
	for p := range f.planes {
		var sum int32
		base := p * f.geo.BlocksPerPlane
		for b := 0; b < f.geo.BlocksPerPlane; b++ {
			if f.inflight[base+b] < 0 {
				return fmt.Errorf("block %d inflight %d negative", base+b, f.inflight[base+b])
			}
			sum += f.inflight[base+b]
		}
		if sum != f.inflightPlane[p] {
			return fmt.Errorf("plane %d inflight total %d, recount %d", p, f.inflightPlane[p], sum)
		}
	}
	return nil
}

// HasFullBlock reports whether the plane has at least one completely
// written block (a GC candidate).
func (f *FTL) HasFullBlock(planeIdx int) bool {
	return len(f.planes[planeIdx].full) > 0
}
