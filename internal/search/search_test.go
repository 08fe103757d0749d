package search

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
)

// quickBase is the paper-default configuration at the quick simulation
// window, the same point the quick experiment suite runs.
func quickBase() core.Config {
	cfg := core.DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 256
	return cfg
}

// smallSpace keeps tests fast: 72 grid points over the axes that matter
// for pruning (geometry, bus, over-provisioning), including the default
// configuration.
func smallSpace() Space {
	return Space{
		Channels:       []int{2, 8, 16},
		DiesPerChannel: []int{2, 4},
		PlanesPerDie:   []int{2, 4},
		BusMBps:        []int{800, 1200},
		OverProvision:  []float64{0.125, 0.25},
	}
}

func runSmall(t *testing.T, parallel int) *Result {
	t.Helper()
	res, err := Run(quickBase(), smallSpace(), Options{Budget: 12, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSearchDeterministicAcrossWidths pins the headline guarantee: the
// frontier CSV is byte-identical at any worker-pool width.
func TestSearchDeterministicAcrossWidths(t *testing.T) {
	seq := runSmall(t, 1)
	if len(seq.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	csv := seq.CSV()
	if again := runSmall(t, 1).CSV(); again != csv {
		t.Fatalf("sequential rerun differs:\n%s\nvs\n%s", csv, again)
	}
	if wide := runSmall(t, 8).CSV(); wide != csv {
		t.Fatalf("parallel=8 differs from sequential:\n%s\nvs\n%s", csv, wide)
	}
	if seq.Stats != runSmall(t, 8).Stats {
		t.Fatal("search statistics differ across pool widths")
	}
}

// TestSearchFrontierContainsOrDominatesDefault pins the acceptance
// criterion: the frontier contains the paper's default configuration or
// a point that dominates it.
func TestSearchFrontierContainsOrDominatesDefault(t *testing.T) {
	res := runSmall(t, 0)
	base := quickBase()
	defHash := base.CanonicalHash()
	var def *Point
	for _, p := range res.Evaluated {
		if p.Hash == defHash {
			def = p
		}
	}
	if def == nil {
		t.Fatal("default configuration was never simulated")
	}
	for _, p := range res.Frontier {
		if p.Hash == defHash {
			return // contained
		}
	}
	for _, p := range res.Frontier {
		if p.dominatesPoint(def) {
			return // dominated by a frontier point
		}
	}
	t.Fatal("frontier neither contains nor dominates the default configuration")
}

// TestSearchFrontierNonDominated verifies the frontier invariant: no
// frontier point dominates another, and every evaluated feasible point is
// either on the frontier or dominated by a frontier point.
func TestSearchFrontierNonDominated(t *testing.T) {
	res := runSmall(t, 0)
	onFrontier := make(map[*Point]bool)
	for _, p := range res.Frontier {
		onFrontier[p] = true
		for _, q := range res.Frontier {
			if p != q && p.dominatesPoint(q) {
				t.Fatalf("frontier point dominates another frontier point")
			}
		}
	}
	for _, p := range res.Evaluated {
		if !p.Feasible || onFrontier[p] {
			continue
		}
		dominated := false
		for _, q := range res.Frontier {
			if q.dominatesPoint(p) {
				dominated = true
			}
		}
		if !dominated {
			t.Fatalf("evaluated point %d missing from frontier but undominated", p.Index)
		}
	}
}

// TestSearchBoundSound spot-checks pruning soundness on every simulated
// point: the analytic bound must never exceed the measured objectives.
func TestSearchBoundSound(t *testing.T) {
	res := runSmall(t, 0)
	if len(res.Evaluated) < 2 {
		t.Fatalf("expected several evaluations, got %d", len(res.Evaluated))
	}
	for _, p := range res.Evaluated {
		if !p.Feasible {
			continue
		}
		if p.OptStep < p.Bound.StepFloor {
			t.Errorf("point %d: simulated step %v below floor %v", p.Index, p.OptStep, p.Bound.StepFloor)
		}
		if p.Energy < p.Bound.EnergyFloor {
			t.Errorf("point %d: simulated energy %g below floor %g", p.Index, p.Energy, p.Bound.EnergyFloor)
		}
	}
}

// TestSearchPruningEffective pins the acceptance criterion on the full
// default grid: at least half the candidates are rejected analytically
// before simulation, the budget is respected, and the memo table dedupes
// the seeded default.
func TestSearchPruningEffective(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid search in -short mode")
	}
	res, err := Run(quickBase(), DefaultSpace(), Options{Budget: 48, Parallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Candidates < 1000 {
		t.Fatalf("default space unexpectedly small: %d candidates", s.Candidates)
	}
	if frac := s.PrunedFraction(); frac < 0.5 {
		t.Fatalf("pruned fraction %.3f below the 0.5 acceptance bar (stats %+v)", frac, s)
	}
	if s.Evaluated > 48 {
		t.Fatalf("budget exceeded: %d simulations", s.Evaluated)
	}
	if s.MemoHits == 0 {
		t.Fatal("expected at least one memo hit (the seeded default is a grid point)")
	}
	if s.Pruned+s.Skipped+s.MemoHits+(s.Evaluated-1) != s.Candidates {
		// Evaluated includes the out-of-grid seed only when the default is
		// not a grid point; in the default space it is, so every candidate
		// is accounted for exactly once.
		t.Fatalf("candidate accounting does not add up: %+v", s)
	}
}

// TestSearchRejectsUndecidedWAF checks that a point whose update WAF
// cannot be decided fails the search instead of being priced with a
// guess: at 0.2% over-provisioning a 1024-block plane keeps about 2 spare
// blocks, below GC high water 4. The error names the OP and the shortfall,
// whether the point is the seed or a grid point.
func TestSearchRejectsUndecidedWAF(t *testing.T) {
	seedLow := quickBase()
	seedLow.SSD.OverProvision = 0.002
	for _, tc := range []struct {
		name  string
		base  core.Config
		space Space
	}{
		{"seed", seedLow, Space{OverProvision: []float64{0.25}}},
		{"grid point", quickBase(), Space{OverProvision: []float64{0.25, 0.002}}},
	} {
		res, err := Run(tc.base, tc.space, Options{Budget: 1, Parallel: 1})
		if err == nil {
			t.Errorf("%s at OP 0.002: search priced it (frontier %d points)", tc.name, len(res.Frontier))
			continue
		}
		for _, want := range []string{"OP 0.002", "short by"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}

// TestSearchPricesSeedOutsideGrid checks that a base configuration whose
// over-provisioning is not on the grid is priced from its own config: the
// sweep WAF and lifetime of its own full drive.
func TestSearchPricesSeedOutsideGrid(t *testing.T) {
	base := quickBase()
	base.SSD.OverProvision = 0.07
	res, err := Run(base, Space{OverProvision: []float64{0.25}}, Options{Budget: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := res.Evaluated[0]
	if seed.Index != -1 {
		t.Fatalf("first evaluated point is grid index %d, want the out-of-grid seed", seed.Index)
	}
	cell := base.SSD.Nand.Cell
	waf, err := core.SweepWAF(base, cell)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.AnalyticLifetime(base, cell, waf)
	//simlint:allow floateq the seed must be priced by this exact computation
	if seed.Lifetime != want {
		t.Fatalf("seed lifetime %g, want %g (WAF %g on its own drive at OP 0.07)", seed.Lifetime, want, waf)
	}
}

// TestSearchDefaultSpaceSweepWAFIsOne checks that every point of the
// default space runs on a full drive whose spare blocks clear the GC
// watermark, so its lifetime is priced at WAF exactly 1.
func TestSearchDefaultSpaceSweepWAFIsOne(t *testing.T) {
	base := quickBase()
	candidates, err := enumerate(base, DefaultSpace(), "optimstore", &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(candidates) != DefaultSpace().Size() {
		t.Fatalf("%d of %d default-space points are candidates", len(candidates), DefaultSpace().Size())
	}
	for _, c := range candidates {
		cfg := base
		c.axes.apply(&cfg)
		waf, err := core.SweepWAF(cfg, cfg.SSD.Nand.Cell)
		if err != nil || math.Float64bits(waf) != math.Float64bits(1) {
			t.Fatalf("point %d (OP %v): WAF %v, %v; want 1", c.index, cfg.SSD.OverProvision, waf, err)
		}
	}
}

// TestEnumerateAllocatesOnlyCandidates keeps grid enumeration to one
// allocation, the candidate slice: each point is priced in one scratch
// Config and held as a value, never as its own Config or Point.
func TestEnumerateAllocatesOnlyCandidates(t *testing.T) {
	base, space, stats := quickBase(), DefaultSpace(), &Stats{}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := enumerate(base, space, "optimstore", stats); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("one enumeration of the default space made %v allocations, want at most 1", allocs)
	}
}

// BenchmarkSearch times the full autotune workload — grid enumeration,
// analytic bound pricing, hashing, pruning, and the budgeted simulations
// — over the default grid. wallbench's tune workload times the same
// search end to end for the regression gate; this entry point serves
// ad-hoc profiling (`go test -bench BenchmarkSearch ./internal/search/`).
func BenchmarkSearch(b *testing.B) {
	base := quickBase()
	base.MaxSimUnits = 128
	var res *Result
	for i := 0; i < b.N; i++ {
		r, err := Run(base, DefaultSpace(), Options{Budget: 16, Parallel: 1})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(res.Stats.Evaluated)/perOp, "configs/s")
	b.ReportMetric(res.Stats.PrunedFraction(), "pruned-frac")
}

// BenchmarkSearchEnumerate times grid enumeration alone: expanding the
// default space over the base configuration, validating each point and
// pricing it with its analytic bound and lifetime. It is the part of a
// search that does not simulate, and it reports ns/point.
func BenchmarkSearchEnumerate(b *testing.B) {
	base := quickBase()
	space := DefaultSpace()
	var candidates []candidate
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := enumerate(base, space, "optimstore", &Stats{})
		if err != nil {
			b.Fatal(err)
		}
		candidates = c
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(candidates))), "ns/point")
}
