package layout

import (
	"testing"

	"repro/internal/approx"
	"testing/quick"

	"repro/internal/nand"
	"repro/internal/ssd"
)

func testGeo() ssd.Geometry {
	n := nand.ParamsFor(nand.TLC) // 4 planes per die
	return ssd.GeometryOf(8, 4, n)
}

func mustNew(t *testing.T, comps int, units int64, s Strategy) *Layout {
	t.Helper()
	l, err := New(testGeo(), comps, units, s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewRejects(t *testing.T) {
	g := testGeo()
	if _, err := New(g, 0, 10, Colocated); err == nil {
		t.Fatal("zero comps accepted")
	}
	if _, err := New(g, 3, 0, Colocated); err == nil {
		t.Fatal("zero units accepted")
	}
	if _, err := New(g, 3, 10, Strategy(99)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestLPADecomposeRoundTrip(t *testing.T) {
	l := mustNew(t, 3, 100, Colocated)
	for u := int64(0); u < 100; u++ {
		for c := 0; c < 3; c++ {
			lpa := l.LPA(u, c)
			gu, gc := l.Decompose(lpa)
			if gu != u || gc != c {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", u, c, lpa, gu, gc)
			}
		}
	}
	if l.LogicalPages() != 300 {
		t.Fatalf("logical pages = %d", l.LogicalPages())
	}
}

func TestLPABoundsPanic(t *testing.T) {
	l := mustNew(t, 3, 10, Colocated)
	for _, fn := range []func(){
		func() { l.LPA(10, 0) },
		func() { l.LPA(0, 3) },
		func() { l.Decompose(30) },
		func() { l.Decompose(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access accepted")
				}
			}()
			fn()
		}()
	}
}

func TestColocatedProperties(t *testing.T) {
	l := mustNew(t, 3, 1000, Colocated)
	var p Placement
	for u := int64(0); u < 1000; u += 7 {
		l.Placement(u, &p)
		if !p.SameDie {
			t.Fatalf("unit %d not on one die", u)
		}
		// 3 comps on a 4-plane die: all on distinct planes.
		if p.DistinctPlanes != 3 {
			t.Fatalf("unit %d distinct planes = %d", u, p.DistinctPlanes)
		}
	}
	if f := l.ColocationFraction(); !approx.Equal(f, 1) {
		t.Fatalf("colocation fraction = %v", f)
	}
}

func TestColocatedBalancesDies(t *testing.T) {
	g := testGeo()
	dies := g.Dies()
	l := mustNew(t, 3, int64(dies*10), Colocated)
	count := make([]int, dies)
	var p Placement
	for u := int64(0); u < l.Units(); u++ {
		l.Placement(u, &p)
		count[p.HomeChannel*g.DiesPerChannel+p.HomeDie]++
	}
	for d, c := range count {
		if c != 10 {
			t.Fatalf("die %d got %d units, want 10", d, c)
		}
	}
}

// TestPlacementAllocatesNothing pins the reuse contract: placing unit
// after unit into one Placement allocates nothing, and the placement
// matches PlaneIdx for every strategy, including split, whose components
// share planes.
func TestPlacementAllocatesNothing(t *testing.T) {
	for _, s := range Strategies() {
		l := mustNew(t, 3, 1000, s)
		var p Placement
		l.Placement(0, &p)
		u := int64(0)
		per := testing.AllocsPerRun(100, func() {
			u = (u + 7) % l.Units()
			l.Placement(u, &p)
		})
		//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
		if per != 0 {
			t.Errorf("%v: Placement allocates %v per call, want 0", s, per)
		}
		for u := int64(0); u < 200; u++ {
			l.Placement(u, &p)
			seen := map[int]bool{}
			for c := 0; c < 3; c++ {
				if p.Planes[c] != l.PlaneIdx(u, c) {
					t.Fatalf("%v: unit %d comp %d on plane %d, want %d", s, u, c, p.Planes[c], l.PlaneIdx(u, c))
				}
				seen[p.Planes[c]] = true
			}
			if p.DistinctPlanes != len(seen) {
				t.Fatalf("%v: unit %d distinct planes %d, want %d", s, u, p.DistinctPlanes, len(seen))
			}
		}
	}
}

func TestSplitNeverColocates(t *testing.T) {
	l := mustNew(t, 3, 1000, SplitByComponent)
	if f := l.ColocationFraction(); !approx.Equal(f, 0) {
		t.Fatalf("split colocation fraction = %v, want 0", f)
	}
}

func TestLinearPartiallyColocates(t *testing.T) {
	l := mustNew(t, 3, 1000, Linear)
	f := l.ColocationFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("linear colocation fraction = %v, want strictly between 0 and 1", f)
	}
}

func TestPlaneMapperMatchesPlacement(t *testing.T) {
	for _, s := range Strategies() {
		l := mustNew(t, 3, 500, s)
		mapper := l.PlaneMapper()
		var p Placement
		for u := int64(0); u < 500; u += 13 {
			l.Placement(u, &p)
			for c := 0; c < 3; c++ {
				if mapper(l.LPA(u, c)) != p.Planes[c] {
					t.Fatalf("%v: mapper disagrees with placement at (%d,%d)", s, u, c)
				}
			}
		}
	}
}

func TestPlacementHomeDie(t *testing.T) {
	g := testGeo()
	l := mustNew(t, 3, 100, Colocated)
	var p Placement
	l.Placement(5, &p)
	// Unit 5 → die 5 → channel 1, die 1 with 4 dies/channel.
	if p.HomeChannel != 1 || p.HomeDie != 1 {
		t.Fatalf("home = ch%d/die%d", p.HomeChannel, p.HomeDie)
	}
	_ = g
}

// Property: every strategy places every page inside the geometry, and
// plane indices are stable (pure function).
func TestPlacementInGeometryProperty(t *testing.T) {
	g := testGeo()
	f := func(unitRaw uint16, compRaw, stratRaw uint8) bool {
		comps := int(compRaw%4) + 1
		l, err := New(g, comps, 4096, Strategies()[int(stratRaw)%3])
		if err != nil {
			return false
		}
		unit := int64(unitRaw) % l.Units()
		for c := 0; c < comps; c++ {
			idx := l.PlaneIdx(unit, c)
			if idx < 0 || idx >= g.Planes() {
				return false
			}
			if idx != l.PlaneIdx(unit, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if Colocated.String() != "colocated" || Linear.String() != "linear" ||
		SplitByComponent.String() != "split" {
		t.Fatal("strategy names")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy should render")
	}
	if len(Strategies()) != 3 {
		t.Fatal("Strategies()")
	}
}

// lpaSink keeps BenchmarkLPA's results live.
var lpaSink int64

// BenchmarkLPA measures the per-page address work a layout does for the
// device: a unit component's logical page, then the plane its first write
// lands on, for each strategy over a GPT-13B-scale window of 3-page units.
func BenchmarkLPA(b *testing.B) {
	const units = 1 << 20
	for _, s := range Strategies() {
		b.Run(s.String(), func(b *testing.B) {
			l, err := New(testGeo(), 3, units, s)
			if err != nil {
				b.Fatal(err)
			}
			planeOf := l.PlaneMapper()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lpa := l.LPA(int64(i)%units, i%3)
				lpaSink += lpa + int64(planeOf(lpa))
			}
		})
	}
}
