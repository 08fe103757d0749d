package ssd

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/nand"
)

// TestSweepWAFMatchesSimulation cross-checks the analytic sweep WAF with
// GC simulation over cells × OP × blocks per plane × pages per block × GC
// watermarks × hot/cold separation, on one die of the measurement device
// (2 planes), and on the measurement device itself. Wherever SweepWAF
// answers, simulation must give exactly 1; wherever it refuses,
// simulation must relocate valid pages (WAF > 1). The grid holds
// answers where a plain spare-block count would refuse (K divides a
// plane's pages) and refusals where it would answer (the oldest valid
// page's offset pushes the valid span one block wider). Each point runs
// PagesPerBlock+2 steps: every step moves that offset by the plane's page
// count, and that many steps visit every offset it can take.
func TestSweepWAFMatchesSimulation(t *testing.T) {
	one := math.Float64bits(1)
	// spareClears is the plain count the rule refines: the fullest plane's
	// spare blocks against GC high water.
	spareClears := func(cfg Config) bool {
		planes := int64(cfg.Geometry().Planes())
		n := (cfg.LogicalPages() + planes - 1) / planes
		k := int64(cfg.Nand.PagesPerBlock)
		return int64(cfg.Nand.BlocksPerPlane)-(n+k-1)/k >= int64(cfg.GCHighWater)
	}
	var answered, refused, answeredShort, refusedClear int
	check := func(name string, cfg Config, steps int) {
		t.Helper()
		simulated, _, err := cfg.SimulateSweeps(nil, steps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waf, err := cfg.SweepWAF()
		if err != nil {
			refused++
			if spareClears(cfg) {
				refusedClear++
			}
			if !(simulated > 1) {
				t.Errorf("%s: SweepWAF refused (%v) but simulation gives %v", name, err, simulated)
			}
			return
		}
		answered++
		if !spareClears(cfg) {
			answeredShort++
		}
		if math.Float64bits(waf) != one || math.Float64bits(simulated) != one {
			t.Errorf("%s: SweepWAF %v, simulated %v; want both exactly 1", name, waf, simulated)
		}
	}

	// The measurement device itself: refused at 7% OP, where its pinned
	// simulated WAF is 8.376, and exactly 1 at 12.5% and 25%.
	for _, op := range []float64{0.07, 0.125, 0.25} {
		cfg := UpdateWAFConfig(nand.TLC, op)
		check(fmt.Sprintf("measurement device op=%v", op), cfg, cfg.Nand.PagesPerBlock+2)
	}
	if _, err := UpdateWAFConfig(nand.TLC, 0.07).SweepWAF(); err == nil {
		t.Error("measurement device at OP 0.07 answered")
	}

	// The grid stops at 5% OP: below it some of these planes wedge the
	// simulated device, as 7% does on 16-block planes with hot/cold
	// separation, and a wedged device gives no WAF to compare.
	for _, cell := range []nand.CellType{nand.SLC, nand.TLC} {
		for _, op := range []float64{0.05, 0.07, 0.1} {
			for _, blocks := range []int{40, 64} {
				for _, pages := range []int{8, 16} {
					for _, wm := range [][2]int{{2, 3}, {1, 5}} {
						for _, hcs := range []bool{false, true} {
							cfg := UpdateWAFConfig(cell, op)
							cfg.Channels, cfg.DiesPerChannel = 1, 1
							cfg.Nand.BlocksPerPlane = blocks
							cfg.Nand.PagesPerBlock = pages
							cfg.GCLowWater, cfg.GCHighWater = wm[0], wm[1]
							cfg.HotColdSeparation = hcs
							check(fmt.Sprintf("%v op=%v blocks=%d pages=%d gc=%v hcs=%v",
								cell, op, blocks, pages, wm, hcs), cfg, pages+2)
						}
					}
				}
			}
		}
	}
	if answeredShort == 0 || refusedClear == 0 {
		t.Fatalf("table does not straddle the boundary: %d answered (%d short of spare blocks), "+
			"%d refused (%d with spare blocks clear)", answered, answeredShort, refused, refusedClear)
	}
	t.Logf("%d answered (%d short of spare blocks), %d refused (%d with spare blocks clear)",
		answered, answeredShort, refused, refusedClear)
}

// TestWedgedPlaneIsAnError runs the sweep driver on a device that passes
// Validate but whose plane cannot keep up: the measurement device at 7%
// OP with hot/cold separation. The wedge must come back as an error that
// names the plane, not a panic.
func TestWedgedPlaneIsAnError(t *testing.T) {
	cfg := UpdateWAFConfig(nand.TLC, 0.07)
	cfg.HotColdSeparation = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config must pass Validate: %v", err)
	}
	waf, _, err := cfg.SimulateSweeps(nil, 3)
	if err == nil {
		t.Fatalf("wedged device measured WAF %v", waf)
	}
	for _, want := range []string{"update sweep", "plane", "wedged"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
