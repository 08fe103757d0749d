package ssd

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/nand"
)

// Addressing. Inside the package a physical page is its linear index
// (Geometry.Linear) and a plane its device-global index; a PPA or
// nand.Addr is built only where a NAND die needs one. The decoder turns a
// linear index into block, plane and PPA with two multiplications and a
// table lookup where Geometry.FromLinear spends four to six 64-bit
// divisions. Geometry stays the reference specification: the decoder
// must agree with FromLinear, PlaneLoc and BlockIndex on every page.

// recip divides by a fixed divisor d with one 64×64→128-bit multiply.
// For d ≥ 2 it holds m = ⌈2^64/d⌉, and ⌊m·n/2^64⌋ = ⌊n/d⌋ exactly for
// every n < 2^32 (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019): the error m·n/2^64 − n/d is below n/2^64 < 2^-32 ≤
// 1/d. The page maps cap a device at 2^32-2 pages, so every linear page
// and block index is in range. d = 1 stores m = 0 and divides by returning
// n, as 2^64 does not fit the multiplier.
type recip uint64

func newRecip(d int) recip {
	if d == 1 {
		return 0
	}
	return recip(math.MaxUint64/uint64(d) + 1)
}

// div returns ⌊n/d⌋ for 0 ≤ n < 2^32.
//
//simlint:hotpath
func (m recip) div(n int64) int64 {
	if m == 0 {
		return n
	}
	hi, _ := bits.Mul64(uint64(m), uint64(n))
	return int64(hi)
}

// planeLoc is the (channel, die, plane-in-die) of a device-global plane.
type planeLoc struct{ ch, die, plane int }

// decoder decodes the linear page indices of one geometry. NewFTL builds
// it once per device.
type decoder struct {
	pagesPerBlock  int64
	blocksPerPlane int64
	perBlock       recip // divides by pagesPerBlock
	perPlane       recip // divides by blocksPerPlane
	planes         []planeLoc
}

// newDecoder builds the decoder of a geometry of at most 2^32-1 pages.
func newDecoder(geo Geometry) decoder {
	if n := geo.TotalPages(); n > math.MaxUint32 {
		panic(fmt.Sprintf("ssd: decoder over %d pages exceeds uint32 range", n))
	}
	c := decoder{
		pagesPerBlock:  int64(geo.PagesPerBlock),
		blocksPerPlane: int64(geo.BlocksPerPlane),
		perBlock:       newRecip(geo.PagesPerBlock),
		perPlane:       newRecip(geo.BlocksPerPlane),
		planes:         make([]planeLoc, geo.Planes()),
	}
	for p := range c.planes {
		ch, die, pl := geo.PlaneLoc(p)
		c.planes[p] = planeLoc{ch: ch, die: die, plane: pl}
	}
	return c
}

// block returns the device-global block index of a linear page.
//
//simlint:hotpath
func (c *decoder) block(lin int64) int {
	return int(c.perBlock.div(lin))
}

// plane returns the device-global plane index of a linear page.
//
//simlint:hotpath
func (c *decoder) plane(lin int64) int {
	return int(c.perPlane.div(c.perBlock.div(lin)))
}

// ppa decodes a linear page index.
//
//simlint:hotpath
func (c *decoder) ppa(lin int64) PPA {
	bg := c.perBlock.div(lin)
	p := c.perPlane.div(bg)
	l := c.planes[p]
	return PPA{Channel: l.ch, Die: l.die, Addr: nand.Addr{
		Plane: l.plane,
		Block: int(bg - p*c.blocksPerPlane),
		Page:  int(lin - bg*c.pagesPerBlock),
	}}
}
