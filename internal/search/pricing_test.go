package search

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// perPointEnumerate is the unfactored enumeration the pricing tables
// replace: every grid point, decoded from its index, is validated and
// priced with its own core.BoundFor and lifetime calls.
func perPointEnumerate(base core.Config, space Space, system string, stats *Stats) ([]candidate, error) {
	g := newGrid(base, space)
	var out []candidate
	for i := 0; i < space.Size(); i++ {
		cfg := base
		g.apply(i, &cfg)
		if cfg.Validate() != nil {
			stats.Invalid++
			continue
		}
		b, ok := core.BoundFor(system, cfg)
		if !ok {
			stats.Invalid++
			continue
		}
		life, err := lifetime(&cfg)
		if err != nil {
			return nil, fmt.Errorf("search: grid point %d: %w", i, err)
		}
		stats.Candidates++
		out = append(out, candidate{index: i, stepFloor: b.StepFloor, energyFloor: b.EnergyFloor, lifetime: life})
	}
	return out, nil
}

// TestFactoredPricingMatchesPerPoint checks that pricing each axis subset
// once gives every candidate the bits per-point pricing gives it: the
// step floor, the energy floor and the lifetime, for every system, on the
// golden searches' bases over the default space and on a smaller space.
func TestFactoredPricingMatchesPerPoint(t *testing.T) {
	type pricingCase struct {
		name  string
		base  core.Config
		space Space
	}
	cases := []pricingCase{{"small", quickBase(), smallSpace()}}
	for _, r := range goldenRuns() {
		cases = append(cases, pricingCase{r.name, r.base, r.space})
	}
	for _, system := range core.SystemNames() {
		for _, tc := range cases {
			var got, want Stats
			gotC, err := enumerate(tc.base, tc.space, system, &got)
			if err != nil {
				t.Fatalf("%s %s: %v", system, tc.name, err)
			}
			wantC, err := perPointEnumerate(tc.base, tc.space, system, &want)
			if err != nil {
				t.Fatalf("%s %s: per point: %v", system, tc.name, err)
			}
			if got.Candidates != want.Candidates || got.Invalid != want.Invalid {
				t.Fatalf("%s %s: %d candidates, %d invalid; per point %d, %d",
					system, tc.name, got.Candidates, got.Invalid, want.Candidates, want.Invalid)
			}
			for i, g := range gotC {
				w := wantC[i]
				if g.index != w.index || g.stepFloor != w.stepFloor ||
					math.Float64bits(g.energyFloor) != math.Float64bits(w.energyFloor) ||
					math.Float64bits(g.lifetime) != math.Float64bits(w.lifetime) {
					t.Fatalf("%s %s: candidate %d is %+v, per point %+v", system, tc.name, i, g, w)
				}
			}
		}
	}
}

// TestFactoredPricingFailsAtTheSamePoint checks that a lifetime the sweep
// WAF cannot decide fails enumeration naming the grid point per-point
// pricing names. The zero-channel points ahead of it are invalid, and
// the lifetime entry of the failing point is filled by its first valid
// point, not before.
func TestFactoredPricingFailsAtTheSamePoint(t *testing.T) {
	space := Space{
		Channels:      []int{0, 4, 8},
		PlanesPerDie:  []int{2, 4},
		OverProvision: []float64{0.25, 0.002},
	}
	_, err := enumerate(quickBase(), space, core.SystemOptimStore, &Stats{})
	_, want := perPointEnumerate(quickBase(), space, core.SystemOptimStore, &Stats{})
	if err == nil || want == nil {
		t.Fatalf("undecided WAF priced: factored error %v, per-point error %v", err, want)
	}
	if err.Error() != want.Error() || !strings.Contains(err.Error(), "grid point") {
		t.Fatalf("factored pricing fails with %q, per-point pricing with %q", err, want)
	}
}
