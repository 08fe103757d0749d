// Package ssd models a multi-channel NVMe SSD on top of the nand package:
// a page-level log-structured FTL with greedy garbage collection, a
// DRAM write cache with backpressure, and the per-plane allocation
// discipline that in-storage update paths (OptimStore's read-modify-
// program) rely on for die locality.
package ssd

import (
	"fmt"

	"repro/internal/nand"
)

// PPA is a device-global physical page address.
type PPA struct {
	Channel int
	Die     int
	nand.Addr
}

// String renders the PPA as ch/die/pl/blk/pg.
func (p PPA) String() string {
	return fmt.Sprintf("ch%d/die%d/%s", p.Channel, p.Die, p.Addr.String())
}

// Geometry precomputes the strides for translating between PPA structs,
// linear page indices, and plane indices.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int
}

// GeometryOf derives the geometry from a channel count and NAND params.
func GeometryOf(channels, diesPerChannel int, p nand.Params) Geometry {
	return Geometry{
		Channels:       channels,
		DiesPerChannel: diesPerChannel,
		PlanesPerDie:   p.PlanesPerDie,
		BlocksPerPlane: p.BlocksPerPlane,
		PagesPerBlock:  p.PagesPerBlock,
		PageSize:       p.PageSize,
	}
}

// Planes returns the device-wide plane count — the unit of NAND
// parallelism every bandwidth result scales with.
func (g Geometry) Planes() int {
	return g.Channels * g.DiesPerChannel * g.PlanesPerDie
}

// Dies returns the device-wide die count.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChannel }

// BlocksTotal returns the device-wide block count.
func (g Geometry) BlocksTotal() int { return g.Planes() * g.BlocksPerPlane }

// TotalPages returns the device-wide physical page count.
func (g Geometry) TotalPages() int64 {
	return int64(g.BlocksTotal()) * int64(g.PagesPerBlock)
}

// TotalBytes returns the physical capacity in bytes.
func (g Geometry) TotalBytes() int64 { return g.TotalPages() * int64(g.PageSize) }

// PlaneIndex maps (channel, die, plane) to a device-global plane index.
func (g Geometry) PlaneIndex(ch, die, plane int) int {
	return (ch*g.DiesPerChannel+die)*g.PlanesPerDie + plane
}

// PlaneOf returns the device-global plane index of a PPA.
func (g Geometry) PlaneOf(p PPA) int { return g.PlaneIndex(p.Channel, p.Die, p.Plane) }

// PlaneLoc inverts PlaneIndex.
func (g Geometry) PlaneLoc(planeIdx int) (ch, die, plane int) {
	plane = planeIdx % g.PlanesPerDie
	dieGlobal := planeIdx / g.PlanesPerDie
	return dieGlobal / g.DiesPerChannel, dieGlobal % g.DiesPerChannel, plane
}

// BlockIndex maps a PPA's block to a device-global block index.
func (g Geometry) BlockIndex(p PPA) int {
	return g.PlaneOf(p)*g.BlocksPerPlane + p.Block
}

// Linear maps a PPA to a device-global page index.
//
//simlint:allow unused the reference address map: the tier-5 crash test in invariant and ssd's decoder tests compare against it
func (g Geometry) Linear(p PPA) int64 {
	return int64(g.BlockIndex(p))*int64(g.PagesPerBlock) + int64(p.Page)
}
