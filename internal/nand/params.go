// Package nand models NAND flash dies at operation granularity: page reads
// (tR), page programs (tPROG) and block erases (tBERS) that occupy a plane,
// plus data transfers that occupy the shared ONFI channel bus. The model
// enforces the physical constraints in-storage processing has to live with:
// no in-place page overwrite, strictly sequential page programming within a
// block, and erase-before-rewrite, with per-block wear accounting.
package nand

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// CellType selects the bits-per-cell technology of a die or region.
type CellType int

// Supported cell technologies.
const (
	SLC CellType = iota // 1 bit/cell: fast, durable, low density
	MLC                 // 2 bits/cell
	TLC                 // 3 bits/cell: mainstream capacity flash
	QLC                 // 4 bits/cell: archival density
)

// String returns the conventional abbreviation.
func (c CellType) String() string {
	switch c {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("CellType(%d)", int(c))
	}
}

// Params describes the geometry and timing of one NAND die family.
// Defaults come from the public datasheet ballpark for ~2022 3D NAND;
// every experiment that depends on a constant sweeps it.
type Params struct {
	Cell CellType

	// Geometry.
	PageSize       int // bytes of user data per page
	PagesPerBlock  int
	BlocksPerPlane int
	PlanesPerDie   int

	// Array timing. ProgramLatency is the *effective per-page* program
	// time: multi-bit cells program a whole wordline (2/3/4 pages) in one
	// tPROG, so the per-page figure is tPROG divided by bits per cell.
	ReadLatency    sim.Time // tR: array -> page register
	ProgramLatency sim.Time // effective per-page program time
	EraseLatency   sim.Time // tBERS: whole-block erase

	// Channel interface: ONFI/Toggle bus shared by all dies on a channel.
	BusMBps int // sustained transfer rate, MB/s

	// Endurance: rated program/erase cycles per block.
	PECycles int

	// ReadSuspend enables program/erase suspend: page reads preempt an
	// in-flight program or erase on the plane, which then resumes with
	// ResumeOverhead of extra array time. Dramatically improves read
	// latency under update load at a small throughput cost.
	ReadSuspend    bool
	ResumeOverhead sim.Time
}

// ParamsFor returns datasheet-ballpark parameters for the given cell type.
func ParamsFor(c CellType) Params {
	p := Params{
		Cell:           c,
		PageSize:       16 * 1024,
		PagesPerBlock:  256,
		BlocksPerPlane: 1024,
		PlanesPerDie:   4,
		BusMBps:        1200,
	}
	switch c {
	case SLC:
		p.ReadLatency = 25 * sim.Microsecond
		p.ProgramLatency = 200 * sim.Microsecond
		p.EraseLatency = 2 * sim.Millisecond
		p.PECycles = 100_000
		p.PagesPerBlock = 128 // SLC-mode blocks hold one bit per cell
	case MLC:
		p.ReadLatency = 40 * sim.Microsecond
		p.ProgramLatency = 250 * sim.Microsecond // tPROG 500us / 2 pages per wordline
		p.EraseLatency = 3 * sim.Millisecond
		p.PECycles = 10_000
	case TLC:
		p.ReadLatency = 65 * sim.Microsecond
		p.ProgramLatency = 300 * sim.Microsecond // tPROG 900us / 3 pages per wordline
		p.EraseLatency = 3500 * sim.Microsecond
		p.PECycles = 3_000
	case QLC:
		p.ReadLatency = 120 * sim.Microsecond
		p.ProgramLatency = 500 * sim.Microsecond // tPROG 2ms / 4 pages per wordline
		p.EraseLatency = 4 * sim.Millisecond
		p.PECycles = 1_000
	default:
		panic(fmt.Sprintf("nand: unknown cell type %d", int(c)))
	}
	return p
}

// Validate reports the first structural problem with the parameters.
func (p Params) Validate() error {
	switch {
	case p.PageSize <= 0:
		return fmt.Errorf("nand: PageSize %d", p.PageSize)
	case p.PagesPerBlock <= 0:
		return fmt.Errorf("nand: PagesPerBlock %d", p.PagesPerBlock)
	case p.BlocksPerPlane <= 0:
		return fmt.Errorf("nand: BlocksPerPlane %d", p.BlocksPerPlane)
	case p.PlanesPerDie <= 0:
		return fmt.Errorf("nand: PlanesPerDie %d", p.PlanesPerDie)
	case p.ReadLatency <= 0 || p.ProgramLatency <= 0 || p.EraseLatency <= 0:
		return fmt.Errorf("nand: non-positive latency")
	case p.BusMBps <= 0:
		return fmt.Errorf("nand: BusMBps %d", p.BusMBps)
	case p.PECycles <= 0:
		return fmt.Errorf("nand: PECycles %d", p.PECycles)
	case p.ResumeOverhead < 0:
		return fmt.Errorf("nand: ResumeOverhead %d", p.ResumeOverhead)
	}
	return nil
}

// TransferTime returns the channel-bus occupancy to move n bytes.
// The result is at least 1ns for any positive n.
func (p Params) TransferTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	t := units.MBps(p.BusMBps).TransferTimeInt(int64(n))
	if t < 1 {
		t = 1
	}
	return t
}

// BlockBytes returns the user bytes in one block.
func (p Params) BlockBytes() int64 { return int64(p.PageSize) * int64(p.PagesPerBlock) }
