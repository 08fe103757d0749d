package ssd

import "fmt"

const unmapped = int64(-1)

// l2pChunkBits sizes the chunks of the logical map. A simulated window
// preloads logical pages 0..n-1 densely, so small chunks hold it with
// little zeroing past its end.
const l2pChunkBits = 10

// pageMap is a sparse array of page numbers defaulting to unmapped, whose
// cost scales with the pages a run writes rather than with the device.
// A freshly built device maps nothing and a design point touches only its
// window, so chunks materialise on first write.
//
// The map holds no pointers: dir has one uint32 per chunk up to the last
// chunk written, holding the chunk's index in slab plus one (0 means
// absent, every entry unmapped), and slab holds the materialised chunks
// back to back, growing by one chunk on first write. Entries are uint32
// biased by +1, so the zero value of a fresh chunk already means
// unmapped; the bias caps a device (or its logical space) at 2^32-2
// pages, checked at build.
//
// The FTL's logical map is a pageMap; the reverse map lives in the block
// records (blockRec), which grow with the pages a plane programs.
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
		slab: make([]uint32, 0, reserve<<chunkBits),
	}
}

func (m *pageMap) get(i int64) int64 {
	ci := i >> m.bits
	if ci >= int64(len(m.dir)) {
		return unmapped
	}
	c := m.dir[ci]
	if c == 0 {
		return unmapped
	}
	return int64(m.slab[int64(c-1)<<m.bits|i&(1<<m.bits-1)]) - 1
}

func (m *pageMap) set(i, v int64) {
	ci := i >> m.bits
	if ci >= int64(len(m.dir)) {
		if v == unmapped {
			return
		}
		//simlint:allow hotalloc amortized growth of the directory to the last chunk written
		m.dir = append(m.dir, make([]uint32, ci+1-int64(len(m.dir)))...)
	}
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
//
// Per-block state grows with use. Each plane opens never-used blocks in
// id order, so the blocks it has opened are exactly those below its
// high-water mark, len(planeAlloc.blocks); a block at or above the mark
// is erased-fresh, with no pages, erases or mappings, and needs no record.
// A window opens a few blocks of each plane, so the FTL's size scales with
// the blocks it touches, not with the geometry.
type FTL struct {
	geo          Geometry
	dec          decoder
	logicalPages int64

	l2p    pageMap // logical page -> linear PPA, or unmapped
	planes []planeAlloc

	retiredCount int

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

// planeAlloc is the allocation state of one plane: the records of the
// blocks it has opened, a FIFO of erased blocks, per-stream open blocks
// being filled, and full blocks awaiting GC. The free blocks are the
// erased ones plus every block at or above the mark.
type planeAlloc struct {
	blocks []blockRec // blocks below the mark, by id
	free   []int32    // erased blocks below the mark, ready to open
	open   [2]int32   // filling, per stream; -1 when none
	next   [2]int     // next page within open, per stream
	full   []int32    // completely written blocks

	// In-flight (issued, not yet committed) programs across the plane;
	// blockRec.inflight holds them per block.
	inflight int32
}

// blockRec is the FTL's record of one opened block.
type blockRec struct {
	valid  int32 // valid pages
	erases int32 // P/E cycles (the FTL's own tally)

	// In-flight (issued, not yet committed) programs. A block with
	// in-flight programs must not be erased: the mapping commits at
	// program completion, and erasing out from under it would either
	// destroy the data racing toward the block or let the commit land in
	// an erased block.
	inflight int32

	retired bool // permanently out of circulation

	// p2l is the reverse map of the block: logical page + 1 per page, 0
	// when the page is free or stale. It holds the pages written so far
	// (see record). Erasing a block zeroes it in place for the next fill.
	p2l []uint32
}

// firstBlockRecs is the capacity of a plane's block records at its first
// opened block: room for the few blocks a window opens before it regrows.
const firstBlockRecs = 4

// p2lFirstPages is the reverse-map length of a plane's first block until
// it holds more pages. A preload programs a few pages per plane, so most
// planes a window touches never need more; a plane that opens a second
// block writes whole blocks, so its blocks hold whole-block maps.
const p2lFirstPages = 16

// NewFTL builds an FTL over the geometry exposing logicalPages of capacity.
func NewFTL(geo Geometry, logicalPages int64) *FTL {
	total := geo.TotalPages()
	if logicalPages <= 0 || logicalPages > total {
		panic(fmt.Sprintf("ssd: logical pages %d vs physical %d", logicalPages, total))
	}
	f := &FTL{
		geo:          geo,
		logicalPages: logicalPages,
		l2p:          newPageMap(logicalPages, l2pChunkBits, 1),
		planes:       make([]planeAlloc, geo.Planes()),
	}
	f.dec = newDecoder(geo)
	for p := range f.planes {
		pa := &f.planes[p]
		pa.open[HotStream] = -1
		pa.open[ColdStream] = -1
	}
	return f
}

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

// rec returns the record of the opened block holding the linear page lin,
// and the page's index within the block.
//
//simlint:hotpath
func (f *FTL) rec(lin int64) (*blockRec, int) {
	plane, block, page := f.dec.split(lin)
	return &f.planes[plane].blocks[block], page
}

// reverse returns the logical page stored at the linear page lin, or
// unmapped when the page is free or stale.
func (f *FTL) reverse(lin int64) int64 {
	plane, block, page := f.dec.split(lin)
	blocks := f.planes[plane].blocks
	if block >= len(blocks) || page >= len(blocks[block].p2l) {
		return unmapped
	}
	return int64(blocks[block].p2l[page]) - 1
}

// FreeBlocks returns the number of erased blocks available in a plane.
func (f *FTL) FreeBlocks(planeIdx int) int {
	pa := &f.planes[planeIdx]
	return len(pa.free) + f.geo.BlocksPerPlane - len(pa.blocks)
}

// AvailablePages returns the number of pages that can still be allocated
// in the plane without reclaiming space: the remainders of the open blocks
// plus all free blocks.
func (f *FTL) AvailablePages(planeIdx int) int {
	pa := &f.planes[planeIdx]
	n := f.FreeBlocks(planeIdx) * f.geo.PagesPerBlock
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
	return f.planes[planeIdx].open[HotStream] >= 0 || f.FreeBlocks(planeIdx) > 0
}

// allocPage is AllocPageStream returning the page's linear index.
func (f *FTL) allocPage(planeIdx int, stream Stream) int64 {
	pa := &f.planes[planeIdx]
	s := int(stream)
	if pa.open[s] < 0 {
		if f.FreeBlocks(planeIdx) == 0 {
			// Cold stream may borrow the hot open block rather than wedge.
			if stream == ColdStream && pa.open[HotStream] >= 0 {
				s = int(HotStream)
			} else {
				//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
				panic(fmt.Sprintf("ssd: plane %d out of blocks", planeIdx))
			}
		} else {
			pa.open[s] = f.openBlock(pa)
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

// openBlock takes the plane's least-erased free block, ties to the first
// erased, and returns its id. This is the dynamic half of wear levelling.
// A block at the mark has no erases and sorts after the erased blocks
// with none, which only a recovered plane holds, and before every other:
// the choice a FIFO of every free block in id order, erased blocks
// appended as they return, would make.
func (f *FTL) openBlock(pa *planeAlloc) int32 {
	best := -1
	for i := range pa.free {
		if best < 0 || pa.blocks[pa.free[i]].erases < pa.blocks[pa.free[best]].erases {
			best = i
		}
	}
	if mark := len(pa.blocks); mark < f.geo.BlocksPerPlane && (best < 0 || pa.blocks[pa.free[best]].erases > 0) {
		if pa.blocks == nil {
			//simlint:allow hotalloc once per plane, at its first opened block
			pa.blocks = make([]blockRec, 0, firstBlockRecs)
		}
		//simlint:allow hotalloc amortized growth, bounded by the plane's block count
		pa.blocks = append(pa.blocks, blockRec{})
		return int32(mark)
	}
	b := pa.free[best]
	//simlint:allow hotalloc in-place removal; never grows
	pa.free = append(pa.free[:best], pa.free[best+1:]...)
	return b
}

// commit is CommitWrite to the linear page lin.
func (f *FTL) commit(lpa, lin int64, gc bool) {
	f.checkLPA(lpa)
	if f.reverse(lin) != unmapped {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: commit to already-valid page %v", f.dec.ppa(lin)))
	}
	if old := f.l2p.get(lpa); old != unmapped {
		f.drop(old)
	}
	f.l2p.set(lpa, lin)
	f.record(lin, lpa)
	if gc {
		f.gcProgrammed++
	} else {
		f.hostProgrammed++
	}
}

// record maps the linear page lin to lpa in its block's reverse map and
// counts the page valid. The map grows to the page: to p2lFirstPages
// entries while the block is the only one its plane has opened, else to
// the whole block.
func (f *FTL) record(lin, lpa int64) {
	plane, block, pg := f.dec.split(lin)
	pa := &f.planes[plane]
	r := &pa.blocks[block]
	if pg >= len(r.p2l) {
		n := f.geo.PagesPerBlock
		if len(pa.blocks) == 1 && pg < p2lFirstPages {
			n = min(n, p2lFirstPages)
		}
		//simlint:allow hotalloc a block's reverse map grows at most twice per block a run opens
		grown := make([]uint32, n)
		copy(grown, r.p2l)
		r.p2l = grown
	}
	r.p2l[pg] = uint32(lpa + 1)
	r.valid++
}

// drop unmaps the linear page lin in the reverse map, leaving it stale.
func (f *FTL) drop(lin int64) {
	r, pg := f.rec(lin)
	r.p2l[pg] = 0
	r.valid--
}

// beginProgram records a program issued to the linear page lin of plane
// whose mapping will commit at completion (endProgram). The FTL refuses
// to pick blocks with in-flight programs as GC victims while the count is
// nonzero.
func (f *FTL) beginProgram(plane int, lin int64) {
	r, _ := f.rec(lin)
	r.inflight++
	f.planes[plane].inflight++
}

// endProgram retires a beginProgram record when the program completes
// (or completes stale, in which case no mapping is committed).
func (f *FTL) endProgram(plane int, lin int64) {
	r, _ := f.rec(lin)
	r.inflight--
	f.planes[plane].inflight--
	if r.inflight < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: endProgram without beginProgram on %v", f.dec.ppa(lin)))
	}
}

// InflightPrograms returns the number of issued-but-uncommitted programs
// targeting the plane.
func (f *FTL) InflightPrograms(planeIdx int) int {
	return int(f.planes[planeIdx].inflight)
}

// PickVictim removes and returns the full block with the fewest valid
// pages in the plane (greedy policy). ok is false when no eligible full
// block exists or the best candidate is entirely valid — erasing an
// all-valid block reclaims nothing and would make GC churn forever.
// Blocks with in-flight programs are ineligible (see beginProgram).
func (f *FTL) PickVictim(planeIdx int) (block int, ok bool) {
	pa := &f.planes[planeIdx]
	best := -1
	for i := 0; i < len(pa.full); i++ {
		r := &pa.blocks[pa.full[i]]
		if r.inflight > 0 {
			continue
		}
		if best < 0 || r.valid < pa.blocks[pa.full[best]].valid {
			best = i
		}
	}
	if best < 0 || int(pa.blocks[pa.full[best]].valid) == f.geo.PagesPerBlock {
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
	r := &f.planes[planeIdx].blocks[block]
	if r.retired {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: block %d/%d retired twice", planeIdx, block))
	}
	if r.valid != 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: retiring block %d/%d with %d valid pages", planeIdx, block, r.valid))
	}
	if r.inflight != 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ssd: retiring block %d/%d with in-flight programs", planeIdx, block))
	}
	// The retired block holds nothing, and never will again.
	r.p2l = nil
	r.retired = true
	f.retiredCount++
}

// Retired reports whether a plane's block has been retired.
func (f *FTL) Retired(planeIdx, block int) bool {
	blocks := f.planes[planeIdx].blocks
	return block < len(blocks) && blocks[block].retired
}

// RetiredBlocks returns the total number of retired blocks.
func (f *FTL) RetiredBlocks() int { return f.retiredCount }

// MappedPages returns the number of logical pages currently mapped.
func (f *FTL) MappedPages() int64 {
	var n int64
	for p := range f.planes {
		n += f.validOnPlane(p)
	}
	return n
}

// validOnPlane sums the valid pages of a plane's blocks.
func (f *FTL) validOnPlane(planeIdx int) int64 {
	var n int64
	for i := range f.planes[planeIdx].blocks {
		n += int64(f.planes[planeIdx].blocks[i].valid)
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
		n += f.validOnPlane(f.geo.PlaneIndex(ch, die, p))
	}
	return n
}

// restoreMapping installs lpa→lin during crash-recovery replay: same map
// updates as CommitWrite but with no displacement (the rebuilt maps start
// empty) and no program tallies (the programs happened before the crash).
func (f *FTL) restoreMapping(lpa, lin int64) {
	f.checkLPA(lpa)
	if f.reverse(lin) != unmapped {
		panic(fmt.Sprintf("ssd: recovery maps two lpas to %v", f.dec.ppa(lin)))
	}
	if f.l2p.get(lpa) != unmapped {
		panic(fmt.Sprintf("ssd: recovery maps lpa %d twice", lpa))
	}
	f.l2p.set(lpa, lin)
	f.record(lin, lpa)
}

// blockStart returns the linear index of the first page of a plane's
// block.
func (f *FTL) blockStart(planeIdx, block int) int64 {
	return int64(planeIdx*f.geo.BlocksPerPlane+block) * int64(f.geo.PagesPerBlock)
}

// appendValidLPAs appends ValidLPAs(planeIdx, block) to dst.
func (f *FTL) appendValidLPAs(dst []int64, planeIdx, block int) []int64 {
	blocks := f.planes[planeIdx].blocks
	if block >= len(blocks) {
		return dst
	}
	for _, v := range blocks[block].p2l {
		if v != 0 {
			//simlint:allow hotalloc amortized growth of a relocation record's resident list; reused across victims
			dst = append(dst, int64(v)-1)
		}
	}
	return dst
}

// ValidCount returns the number of valid pages in a plane's block.
func (f *FTL) ValidCount(planeIdx, block int) int {
	blocks := f.planes[planeIdx].blocks
	if block >= len(blocks) {
		return 0
	}
	return int(blocks[block].valid)
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
	pa := &f.planes[planeIdx]
	r := &pa.blocks[block]
	// Drop stale reverse mappings for the erased block.
	clear(r.p2l)
	r.erases++
	//simlint:allow hotalloc amortized growth, bounded by the plane's block count
	pa.free = append(pa.free, int32(block))
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
// bijections on mapped pages, each block's valid count matches its
// reverse map, and in-flight tallies add up. Used by property tests;
// O(pages of the opened blocks + logical pages).
func (f *FTL) CheckConsistent() error {
	for p := range f.planes {
		pa := &f.planes[p]
		var inflight int32
		for b := range pa.blocks {
			r := &pa.blocks[b]
			start := f.blockStart(p, b)
			var valid int32
			for pg, v := range r.p2l {
				if v == 0 {
					continue
				}
				lin, lpa := start+int64(pg), int64(v)-1
				if lpa >= f.logicalPages {
					return fmt.Errorf("p2l[%d] = %d out of range", lin, lpa)
				}
				if got := f.l2p.get(lpa); got != lin {
					return fmt.Errorf("p2l[%d]=%d but l2p[%d]=%d", lin, lpa, lpa, got)
				}
				valid++
			}
			g := p*f.geo.BlocksPerPlane + b
			if valid != r.valid {
				return fmt.Errorf("block %d validCount %d, recount %d", g, r.valid, valid)
			}
			if r.retired && (r.valid != 0 || r.inflight != 0) {
				return fmt.Errorf("retired block %d has valid=%d inflight=%d", g, r.valid, r.inflight)
			}
			if r.inflight < 0 {
				return fmt.Errorf("block %d inflight %d negative", g, r.inflight)
			}
			inflight += r.inflight
		}
		if inflight != pa.inflight {
			return fmt.Errorf("plane %d inflight total %d, recount %d", p, pa.inflight, inflight)
		}
	}
	var err error
	f.l2p.forEach(func(lpa, lin int64) {
		if err != nil {
			return
		}
		if got := f.reverse(lin); got != lpa {
			err = fmt.Errorf("l2p[%d]=%d but p2l[%d]=%d", lpa, lin, lin, got)
		}
	})
	return err
}
