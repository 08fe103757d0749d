package ssd

import (
	"testing"

	"repro/internal/approx"
	"testing/quick"

	"repro/internal/nand"
)

func testGeo() Geometry {
	return Geometry{
		Channels:       2,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		BlocksPerPlane: 8,
		PagesPerBlock:  4,
		PageSize:       16384,
	}
}

func TestGeometryCounts(t *testing.T) {
	g := testGeo()
	if g.Planes() != 8 || g.Dies() != 4 {
		t.Fatalf("planes=%d dies=%d", g.Planes(), g.Dies())
	}
	if g.BlocksTotal() != 64 {
		t.Fatalf("blocks=%d", g.BlocksTotal())
	}
	if g.TotalPages() != 256 {
		t.Fatalf("pages=%d", g.TotalPages())
	}
	if g.TotalBytes() != 256*16384 {
		t.Fatalf("bytes=%d", g.TotalBytes())
	}
}

func TestGeometryLinearRoundTrip(t *testing.T) {
	g := testGeo()
	for lin := int64(0); lin < g.TotalPages(); lin++ {
		p := g.FromLinear(lin)
		if !g.Contains(p) {
			t.Fatalf("FromLinear(%d) = %v outside geometry", lin, p)
		}
		if back := g.Linear(p); back != lin {
			t.Fatalf("Linear(FromLinear(%d)) = %d", lin, back)
		}
	}
}

func TestGeometryPlaneLocRoundTrip(t *testing.T) {
	g := testGeo()
	for idx := 0; idx < g.Planes(); idx++ {
		ch, die, pl := g.PlaneLoc(idx)
		if g.PlaneIndex(ch, die, pl) != idx {
			t.Fatalf("PlaneLoc(%d) = (%d,%d,%d) does not round-trip", idx, ch, die, pl)
		}
	}
}

// Property: Linear is a bijection for arbitrary geometries.
func TestGeometryBijectionProperty(t *testing.T) {
	f := func(c, d, p, b, pg uint8, seed uint16) bool {
		g := Geometry{
			Channels:       int(c%4) + 1,
			DiesPerChannel: int(d%4) + 1,
			PlanesPerDie:   int(p%4) + 1,
			BlocksPerPlane: int(b%8) + 1,
			PagesPerBlock:  int(pg%8) + 1,
			PageSize:       4096,
		}
		lin := int64(seed) % g.TotalPages()
		return g.Linear(g.FromLinear(lin)) == lin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryOf(t *testing.T) {
	n := nand.ParamsFor(nand.TLC)
	g := GeometryOf(8, 4, n)
	if g.Channels != 8 || g.DiesPerChannel != 4 || g.PlanesPerDie != n.PlanesPerDie {
		t.Fatalf("geometry %+v", g)
	}
	if g.PageSize != n.PageSize {
		t.Fatal("page size not propagated")
	}
}

func TestPPAString(t *testing.T) {
	p := PPA{Channel: 1, Die: 2}
	p.Plane = 3
	p.Block = 4
	p.Page = 5
	if p.String() != "ch1/die2/pl3/blk4/pg5" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestConfigDefaultsValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Geometry().Planes() != 128 {
		t.Fatalf("default planes = %d, want 128", cfg.Geometry().Planes())
	}
	if lp := cfg.LogicalPages(); lp <= 0 || lp >= cfg.Geometry().TotalPages() {
		t.Fatalf("logical pages = %d", lp)
	}
}

func TestConfigBandwidthCeilings(t *testing.T) {
	cfg := DefaultConfig()
	// TLC: 16KiB/65us ≈ 252 MB/s per plane × 128 planes ≈ 32 GB/s read;
	// 16KiB/300us ≈ 54.6 MB/s × 128 ≈ 7 GB/s program.
	read := cfg.InternalReadMBps()
	if read < 30_000 || read > 35_000 {
		t.Fatalf("internal read = %.0f MB/s", read)
	}
	prog := cfg.InternalProgramMBps()
	if prog < 6_500 || prog > 7_500 {
		t.Fatalf("internal program = %.0f MB/s", prog)
	}
	if ch := cfg.ChannelMBps(); !approx.Equal(float64(ch), 9600) {
		t.Fatalf("channel aggregate = %.0f", ch)
	}
	// The structural asymmetry the paper exploits must hold:
	// internal read bw > channel bw > any external link.
	if !(read > cfg.ChannelMBps()) {
		t.Fatal("internal read bandwidth should exceed channel bandwidth")
	}
}

func TestConfigValidateRejects(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.DiesPerChannel = 0 },
		func(c *Config) { c.OverProvision = 1.0 },
		func(c *Config) { c.OverProvision = -0.1 },
		func(c *Config) { c.GCLowWater = 0 },
		func(c *Config) { c.GCHighWater = 1; c.GCLowWater = 2 },
		func(c *Config) { c.GCHighWater = c.Nand.BlocksPerPlane },
		func(c *Config) { c.CachePages = 0 },
		func(c *Config) { c.CmdLatency = -1 },
		func(c *Config) { c.Nand.PageSize = 0 },
	}
	for i, m := range muts {
		cfg := DefaultConfig()
		m(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// FromLinear inverts Linear.
func (g Geometry) FromLinear(idx int64) PPA {
	page := int(idx % int64(g.PagesPerBlock))
	blockGlobal := int(idx / int64(g.PagesPerBlock))
	block := blockGlobal % g.BlocksPerPlane
	planeIdx := blockGlobal / g.BlocksPerPlane
	ch, die, plane := g.PlaneLoc(planeIdx)
	return PPA{Channel: ch, Die: die, Addr: nand.Addr{Plane: plane, Block: block, Page: page}}
}

// Contains reports whether the PPA is inside the geometry.
func (g Geometry) Contains(p PPA) bool {
	return p.Channel >= 0 && p.Channel < g.Channels &&
		p.Die >= 0 && p.Die < g.DiesPerChannel &&
		p.Plane >= 0 && p.Plane < g.PlanesPerDie &&
		p.Block >= 0 && p.Block < g.BlocksPerPlane &&
		p.Page >= 0 && p.Page < g.PagesPerBlock
}
