package ssd

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// UpdateWAFConfig is the scaled-down state region the update-stream
// measurements drive (core.MeasureUpdateWAF, experiments F11, F17 and
// F19): 2 channels × 2 dies × 2 planes of 16 blocks × 32 pages of the
// given cell type, GC watermarks 2 and 3, at the given over-provisioning.
func UpdateWAFConfig(cell nand.CellType, overProvision float64) Config {
	n := nand.ParamsFor(cell)
	n.BlocksPerPlane = 16
	n.PagesPerBlock = 32
	n.PlanesPerDie = 2
	return Config{
		Channels:        2,
		DiesPerChannel:  2,
		Nand:            n,
		OverProvision:   overProvision,
		GCLowWater:      2,
		GCHighWater:     3,
		CachePages:      64,
		DRAMPageLatency: 2 * sim.Microsecond,
		CmdLatency:      5 * sim.Microsecond,
	}
}

// NewPreloaded builds the device c describes on a fresh engine and
// preloads every logical page, in order when order is non-nil and
// ascending otherwise: a drive whose state region is written once.
func NewPreloaded(c Config, order []int64) (*Device, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	d := NewDevice(sim.NewEngine(), c)
	eachPage(order, d.ftl.LogicalPages(), d.Preload)
	return d, nil
}

// eachPage calls fn on every logical page, in order when order is non-nil
// and ascending otherwise.
func eachPage(order []int64, pages int64, fn func(lpa int64)) {
	if order != nil {
		for _, lpa := range order {
			fn(lpa)
		}
		return
	}
	for lpa := int64(0); lpa < pages; lpa++ {
		fn(lpa)
	}
}

// SimulateSweeps measures the update stream SweepWAF decides: on a
// preloaded device, sweeps full passes of ProgramUpdate over every logical
// page, in order when order is non-nil and ascending otherwise, draining
// after each pass. It returns the write-amplification factor and the
// update rate of every pass after the first, which fills the log cold.
func (c Config) SimulateSweeps(order []int64, sweeps int) (waf, updatesPerSec float64, err error) {
	d, err := NewPreloaded(c, nil)
	if err != nil {
		return 0, 0, err
	}
	update := func(lpa int64) { d.ProgramUpdate(lpa, nil) }
	var baseHost, baseGC uint64
	var start sim.Time
	for s := 0; s < sweeps; s++ {
		eachPage(order, d.ftl.LogicalPages(), update)
		if err := d.RunDrained(); err != nil {
			return 0, 0, fmt.Errorf("ssd: update sweep %d of %d: %w", s+1, sweeps, err)
		}
		if s == 0 {
			baseHost, baseGC, start = d.ftl.HostProgrammed(), d.ftl.GCProgrammed(), d.eng.Now()
		}
	}
	host := d.ftl.HostProgrammed() - baseHost
	gc := d.ftl.GCProgrammed() - baseGC
	if host == 0 {
		return 1, 0, nil
	}
	if elapsed := (d.eng.Now() - start).Seconds(); elapsed > 0 {
		updatesPerSec = float64(host) / elapsed
	}
	return float64(host+gc) / float64(host), updatesPerSec, nil
}

// SweepWAF decides the steady-state write-amplification factor of the
// in-storage update stream on this device: ProgramUpdate of every logical
// page once per step, in the same order every step, with pages placed on
// planes by the device's default mapping (logical page mod planes). It
// returns exactly 1 when greedy GC provably never relocates a valid page,
// and otherwise an error naming the geometry and the shortfall. It never
// estimates; simulating the stream is the only way to price a refused
// device.
//
// The rule follows from the FTL. A plane holding n logical pages rewrites
// them in the order it wrote them, so its log is a FIFO whose newest n
// pages are exactly the valid ones. With B blocks of K pages per plane,
// GC can meet a valid page in two places:
//
//   - Mid-step, with updates waiting for space, GC takes the oldest block
//     that still holds valid pages. Writes run ahead while more than one
//     block's worth of pages is free (hostCanWrite), so the write frontier
//     reaches (B−1)·K pages past that block's start. When n ≤ (B−2)·K,
//     every valid page of the block is already being rewritten, and since
//     a plane serves its operations in order, GC's read of the page queues
//     behind the program that supersedes it and finds it stale.
//   - At a step's end, with no update waiting, GC tops the free blocks up
//     to GCHighWater. The valid pages then span ⌈(o+n)/K⌉ blocks, where o
//     is the offset of the oldest valid page in its block. Each step moves
//     o by n, so o takes every multiple of g = gcd(n, K) below K. With
//     o > 0 that block is partly valid and greedy GC takes it once nothing
//     emptier is left, so B − ⌈(K−g+n)/K⌉ must reach GCHighWater. When K
//     divides n, o stays 0, the oldest block is all valid, PickVictim
//     refuses it, and only the first condition applies.
//
// GCLowWater and HotColdSeparation do not enter: a cold block opens only
// when GC programs a relocation, which both conditions exclude. Read
// suspend lets GC's reads overtake queued programs, so SweepWAF refuses
// such dies.
func (c Config) SweepWAF() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if c.Nand.ReadSuspend {
		return 0, fmt.Errorf("ssd: sweep WAF undecided on %s: read suspend lets GC reads overtake queued updates", c.describe())
	}
	logical, planes := c.LogicalPages(), int64(c.Geometry().Planes())
	if logical <= 0 {
		return 0, fmt.Errorf("ssd: sweep WAF undecided on %s: no logical pages", c.describe())
	}
	k, b := int64(c.Nand.PagesPerBlock), int64(c.Nand.BlocksPerPlane)
	// Planes hold ⌊logical/planes⌋ or ⌈logical/planes⌉ pages; the rule is
	// not monotone in n, so both are checked.
	for _, n := range [2]int64{logical / planes, (logical + planes - 1) / planes} {
		if n == 0 {
			continue
		}
		if n%k == 0 {
			if spare := b - n/k; spare < 2 {
				return 0, fmt.Errorf("ssd: sweep WAF undecided on %s: a plane's %d valid pages fill %d blocks, "+
					"leaving %d spare where the write frontier needs 2 (short by %d)",
					c.describe(), n, n/k, spare, 2-spare)
			}
			continue
		}
		g := gcd(n, k)
		span := (k - g + n + k - 1) / k
		if free := b - span; free < int64(c.GCHighWater) {
			return 0, fmt.Errorf("ssd: sweep WAF undecided on %s: a plane's %d valid pages span up to %d blocks, "+
				"leaving %d free against GC high water %d (short by %d)",
				c.describe(), n, span, free, c.GCHighWater, int64(c.GCHighWater)-free)
		}
	}
	return 1, nil
}

// describe names the geometry and over-provisioning in error messages.
func (c Config) describe() string {
	return fmt.Sprintf("%d channels × %d dies × %d planes of %d blocks × %d pages at OP %g",
		c.Channels, c.DiesPerChannel, c.Nand.PlanesPerDie, c.Nand.BlocksPerPlane, c.Nand.PagesPerBlock,
		c.OverProvision)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
