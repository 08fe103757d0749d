package ssd

import (
	"fmt"

	"repro/internal/sim"
)

// FTL op boundaries. Every durable state mutation the device performs is
// bracketed by exactly one boundary notification, fired synchronously
// AFTER the mutation completes — so an observer (fault injector, crash
// harness) always sees the FTL in a consistent post-state: l2p/p2l are
// inverse bijections, valid counts match, and the mapping reflects the
// mutation just applied. Hooks must not mutate the device; they may stop
// the engine (sim.Engine.Stop) to model a crash at the boundary.
//
// This is the documented contract the GC test hooks lacked: boundaries
// never fire mid-mutation, so injecting at any boundary observes a state
// that CheckConsistent accepts.

// BoundaryKind classifies an FTL op boundary.
type BoundaryKind uint8

// Boundary kinds, in the order a log-structured write's life visits them.
const (
	BoundaryHostWrite BoundaryKind = iota // host write committed (flush completion)
	BoundaryUpdate                        // in-storage update committed
	BoundaryGC                            // GC relocation committed
	BoundaryGCStale                       // relocation completed superseded (no commit)
	BoundaryErase                         // GC victim erased and returned to free pool
	BoundaryTrim                          // logical page invalidated
	BoundaryRetire                        // block permanently retired
)

// String names the boundary kind.
func (k BoundaryKind) String() string {
	switch k {
	case BoundaryHostWrite:
		return "host-write"
	case BoundaryUpdate:
		return "update"
	case BoundaryGC:
		return "gc"
	case BoundaryGCStale:
		return "gc-stale"
	case BoundaryErase:
		return "erase"
	case BoundaryTrim:
		return "trim"
	case BoundaryRetire:
		return "retire"
	}
	return fmt.Sprintf("BoundaryKind(%d)", uint8(k))
}

// Boundary describes one FTL op boundary: its position in the device's
// boundary sequence (1-based, counted only while a hook is installed) and
// the operation that just completed. LPA is -1 for boundaries without a
// single logical page (erase, retire).
type Boundary struct {
	Seq  uint64
	Kind BoundaryKind
	LPA  int64
}

// SetBoundaryHook installs (or, with nil, removes) the op-boundary
// observer. See the contract at the top of this file.
func (d *Device) SetBoundaryHook(fn func(Boundary)) { d.boundaryHook = fn }

// boundary fires the op-boundary hook. The nil check is the entire cost
// when no harness is attached.
func (d *Device) boundary(kind BoundaryKind, lpa int64) {
	if d.boundaryHook == nil {
		return
	}
	d.boundarySeq++
	d.boundaryHook(Boundary{Seq: d.boundarySeq, Kind: kind, LPA: lpa})
}

// DirtyPages returns the number of cache-resident logical pages whose
// freshest copy has not reached NAND — exactly the data a power loss
// destroys with DRAM.
func (d *Device) DirtyPages() int { return len(d.dirty) }

// MappedPages returns the number of logical pages currently mapped.
func (d *Device) MappedPages() int64 { return d.ftl.MappedPages() }

// NthMappedLPA returns the k-th (mod count) mapped logical page; ok is
// false when nothing is mapped.
func (d *Device) NthMappedLPA(k int64) (int64, bool) { return d.ftl.NthMappedLPA(k) }

// MappedPagesOnDie returns the valid pages resident on one die — the data
// at stake if that die fails.
func (d *Device) MappedPagesOnDie(ch, die int) int64 { return d.ftl.ValidPagesOnDie(ch, die) }

// ScrubRead performs an internal array read of lpa purely to probe media
// health (patrol scrub): it exercises read-retry recovery and the block-
// retirement tracker without counting as host or update traffic. Scrubbing
// an unmapped page is a no-op — it may have been trimmed since the scrub
// was scheduled.
//
//simlint:hotpath
func (d *Device) ScrubRead(lpa int64, done func()) {
	lin := d.ftl.lookupLinear(lpa)
	if lin == unmapped {
		if done != nil {
			done()
		}
		return
	}
	d.opStart()
	d.scrubReads++
	o := d.getOp(kindScan)
	o.lpa, o.lin, o.done = lpa, lin, done
	d.arrayRead(o)
}

// retireBlock takes a worn-out block out of service: relocate its valid
// pages within the plane, then mark it retired — never erased or reused.
// Only blocks currently in the full list can be pulled; a block that is
// free, open, or claimed by GC keeps serving until it next fills (the
// retirement tracker's verdict is absorbing, so the next read of the
// refilled block retires it then).
func (d *Device) retireBlock(plane, block int) {
	if !d.ftl.TakeBlock(plane, block) {
		return
	}
	d.opStart()
	o := d.getOp(kindRetire)
	o.plane = plane
	d.relocateBlock(o, block)
}

// RecoveryInfo summarizes what a crash-recovery rebuild found.
type RecoveryInfo struct {
	MappedPages int64 // logical pages recovered from the durable map
	TornPages   int64 // programs in flight at the crash (programmed, never mapped)
	LostDirty   int   // cache-resident dirty pages lost with DRAM
	LostPages   int64 // mapped pages dropped because their die failed
	Blocks      int   // physical blocks scanned
}

// Recover rebuilds a device after a crash (power loss): fresh controller
// state on a fresh engine, the crashed device's durable media state
// restored block by block, and the logical map replayed from the L2P that
// had committed by the crash — the model's equivalent of an OOB scan.
//
// Torn-write semantics: mappings commit at program completion, so every
// recovered mapping must point below its block's write pointer
// (mapped ⊆ programmed); a violation is returned as an error, not
// repaired. Programs in flight at the crash are unmapped garbage.
// Partially written blocks are sealed as full rather than resumed —
// replay never continues a write frontier mid-block.
func Recover(eng *sim.Engine, crashed *Device) (*Device, *RecoveryInfo, error) {
	return recoverInto(eng, crashed, -1, -1)
}

// RecoverAfterDieFailure rebuilds a crashed device with die (failCh,
// failDie) gone: its mappings are dropped (RecoveryInfo.LostPages — they
// must be restored from a checkpoint), its blocks are retired, and the
// fresh die is marked failed so any stray operation panics.
func RecoverAfterDieFailure(eng *sim.Engine, crashed *Device, failCh, failDie int) (*Device, *RecoveryInfo, error) {
	geo := crashed.geo
	if failCh < 0 || failCh >= geo.Channels || failDie < 0 || failDie >= geo.DiesPerChannel {
		return nil, nil, fmt.Errorf("ssd: recover: die %d/%d outside geometry", failCh, failDie)
	}
	return recoverInto(eng, crashed, failCh, failDie)
}

func recoverInto(eng *sim.Engine, crashed *Device, failCh, failDie int) (*Device, *RecoveryInfo, error) {
	d := NewDevice(eng, crashed.cfg)
	d.planeFor = crashed.planeFor
	geo := d.geo
	info := &RecoveryInfo{
		LostDirty: len(crashed.dirty),
		Blocks:    geo.BlocksTotal(),
	}
	dieFailed := func(ch, die int) bool { return ch == failCh && die == failDie }

	// 1. Restore the durable media state: per-block write pointers and P/E
	// counts survive power loss; controller RAM does not.
	for ch := 0; ch < geo.Channels; ch++ {
		for die := 0; die < geo.DiesPerChannel; die++ {
			src, dst := crashed.Die(ch, die), d.Die(ch, die)
			for pl := 0; pl < geo.PlanesPerDie; pl++ {
				for b := 0; b < geo.BlocksPerPlane; b++ {
					dst.RestoreBlock(pl, b, src.WritePtr(pl, b), src.EraseCount(pl, b))
				}
			}
		}
	}

	// 2. Replay the logical map that had committed by the crash, checking
	// mapped ⊆ programmed. In-flight (torn) programs are visible as the
	// crashed FTL's nonzero in-flight counters: physically programmed,
	// never mapped, reclaimed as garbage by future GC.
	var err error
	crashed.ftl.l2p.forEach(func(lpa, lin int64) {
		if err != nil {
			return
		}
		ppa := geo.FromLinear(lin)
		if dieFailed(ppa.Channel, ppa.Die) {
			info.LostPages++
			return
		}
		if wp := d.Die(ppa.Channel, ppa.Die).WritePtr(ppa.Plane, ppa.Block); ppa.Page >= wp {
			err = fmt.Errorf("ssd: recover: lpa %d maps to %v beyond write pointer %d (mapped page never programmed)",
				lpa, ppa, wp)
			return
		}
		d.ftl.restoreMapping(lpa, ppa)
		info.MappedPages++
	})
	if err != nil {
		return nil, nil, err
	}
	for _, n := range crashed.ftl.inflight {
		info.TornPages += int64(n)
	}

	// 3. Rebuild the allocation lists from the physical write pointers:
	// untouched blocks are free, anything written is sealed full. Retired
	// blocks stay retired; a failed die's blocks are all retired.
	for p := 0; p < geo.Planes(); p++ {
		ch, die, pl := geo.PlaneLoc(p)
		srcDie := crashed.Die(ch, die)
		pa := &d.ftl.planes[p]
		pa.free = pa.free[:0]
		pa.full = pa.full[:0]
		pa.open[HotStream], pa.open[ColdStream] = -1, -1
		base := p * geo.BlocksPerPlane
		for b := 0; b < geo.BlocksPerPlane; b++ {
			g := base + b
			d.ftl.erases[g] = int32(srcDie.EraseCount(pl, b))
			if crashed.ftl.retired[g] || dieFailed(ch, die) {
				d.ftl.retired[g] = true
				d.ftl.retiredCount++
				continue
			}
			if srcDie.WritePtr(pl, b) == 0 {
				pa.free = append(pa.free, int32(b))
			} else {
				pa.full = append(pa.full, int32(b))
			}
		}
	}
	if failCh >= 0 {
		d.Die(failCh, failDie).Fail()
	}

	// 4. Carry the lifetime WAF tallies across the crash so endurance
	// accounting spans recoveries.
	d.ftl.hostProgrammed = crashed.ftl.hostProgrammed
	d.ftl.gcProgrammed = crashed.ftl.gcProgrammed

	if cErr := d.ftl.CheckConsistent(); cErr != nil {
		return nil, nil, fmt.Errorf("ssd: recover: rebuilt FTL inconsistent: %w", cErr)
	}
	return d, info, nil
}
