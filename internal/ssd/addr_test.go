package ssd

import (
	"math"
	"math/rand"
	"testing"
)

// checkDecoder compares the decoder with the Geometry reference at one
// linear page.
func checkDecoder(t *testing.T, g Geometry, c *decoder, lin int64) {
	t.Helper()
	want := g.FromLinear(lin)
	if got := c.ppa(lin); got != want {
		t.Fatalf("%+v: ppa(%d) = %v, FromLinear = %v", g, lin, got, want)
	}
	if got, b := c.block(lin), g.BlockIndex(want); got != b {
		t.Fatalf("%+v: block(%d) = %d, BlockIndex = %d", g, lin, got, b)
	}
	plane := g.PlaneOf(want)
	if got := c.plane(lin); got != plane {
		t.Fatalf("%+v: plane(%d) = %d, PlaneOf = %d", g, lin, got, plane)
	}
	ch, die, pl := g.PlaneLoc(plane)
	if l := c.planes[plane]; l != (planeLoc{ch: ch, die: die, plane: pl}) {
		t.Fatalf("%+v: planes[%d] = %+v, PlaneLoc = (%d,%d,%d)", g, plane, l, ch, die, pl)
	}
}

// TestDecoderMatchesGeometry checks the decoder against FromLinear,
// BlockIndex, PlaneOf and PlaneLoc at every page of small geometries,
// including non-power-of-two channel counts and divisors of 1 and 3.
func TestDecoderMatchesGeometry(t *testing.T) {
	for _, channels := range []int{1, 3, 6, 12} {
		for _, dies := range []int{1, 3} {
			for _, planes := range []int{1, 2} {
				for _, blocks := range []int{1, 2, 5, 16} {
					for _, pages := range []int{1, 3, 4, 32} {
						g := Geometry{
							Channels: channels, DiesPerChannel: dies, PlanesPerDie: planes,
							BlocksPerPlane: blocks, PagesPerBlock: pages, PageSize: 4096,
						}
						c := newDecoder(g)
						for lin := int64(0); lin < g.TotalPages(); lin++ {
							checkDecoder(t, g, &c, lin)
						}
					}
				}
			}
		}
	}
}

// TestDecoderNearUint32Bound spot-checks geometries whose page count
// reaches the uint32 range the page maps admit, where the reciprocals'
// exactness bound is tight.
func TestDecoderNearUint32Bound(t *testing.T) {
	geos := []Geometry{
		// 3·5·17·257·65537 = 2^32-1 pages, every divisor odd.
		{Channels: 3, DiesPerChannel: 5, PlanesPerDie: 17, BlocksPerPlane: 257, PagesPerBlock: 65537},
		// One page per block: the block divisor is 1.
		{Channels: 12, DiesPerChannel: 8, PlanesPerDie: 4, BlocksPerPlane: 11184810, PagesPerBlock: 1},
		// One block per plane: the plane divisor is 1.
		{Channels: 6, DiesPerChannel: 4, PlanesPerDie: 2, BlocksPerPlane: 1, PagesPerBlock: 89478485},
		// Three pages per block.
		{Channels: 6, DiesPerChannel: 2, PlanesPerDie: 2, BlocksPerPlane: 59652323, PagesPerBlock: 3},
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range geos {
		g.PageSize = 4096
		total := g.TotalPages()
		if total > math.MaxUint32 || total < math.MaxUint32-1<<10 {
			t.Fatalf("%+v: %d pages, not near the uint32 bound", g, total)
		}
		c := newDecoder(g)
		for _, lin := range []int64{0, 1, total / 2, total - int64(g.PagesPerBlock), total - 2, total - 1} {
			checkDecoder(t, g, &c, lin)
		}
		for i := 0; i < 10000; i++ {
			checkDecoder(t, g, &c, total-1-rng.Int63n(1<<24))
		}
	}
}

// TestRecipExact checks the reciprocal divisor at the edges of its range.
func TestRecipExact(t *testing.T) {
	const top = math.MaxUint32
	for _, d := range []int64{1, 2, 3, 7, 32, 65537, 1<<31 - 1, 1 << 31, top - 1, top} {
		m := newRecip(int(d))
		for _, n := range []int64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, top / 2, top - 1, top} {
			if n < 0 || n > top {
				continue
			}
			if got := m.div(n); got != n/d {
				t.Fatalf("%d/%d = %d, want %d", n, d, got, n/d)
			}
		}
	}
}

func TestDecoderRejectsOversizedGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("decoder over 2^32 pages did not panic")
		}
	}()
	newDecoder(Geometry{Channels: 1, DiesPerChannel: 1, PlanesPerDie: 1,
		BlocksPerPlane: 1 << 16, PagesPerBlock: 1 << 16})
}
