package experiments

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/ssd"
)

// regionWAF is one measured point of the state region's update stream.
type regionWAF struct{ waf, rate float64 }

// specF11 is the GC/over-provisioning sensitivity: steady-state write
// amplification and update throughput of the state region under dense
// (sequential) and sparse (random) update streams.
func specF11() Spec {
	wafPoint := func(random bool) func(Options, *Grid, *Cell) (float64, float64, bool) {
		return func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
			return c.Values[0].X, c.Aux.(regionWAF).waf, c.Values[1].Meta.(bool) == random
		}
	}
	return Spec{
		ID: "F11", Title: "GC / over-provisioning sensitivity",
		Axes: func(opts Options) []Axis {
			ops := []float64{0.07, 0.125, 0.20, 0.28}
			if opts.Quick {
				ops = []float64{0.07, 0.28}
			}
			opVals := make([]AxisValue, len(ops))
			for i, op := range ops {
				opVals[i] = AxisValue{Label: fmt.Sprint(op), X: op, Meta: op}
			}
			return []Axis{
				{Name: "over-provision", Values: opVals},
				{Name: "workload", Values: []AxisValue{
					{Label: "sequential", Meta: false},
					{Label: "random", Meta: true},
				}},
			}
		},
		Derive: func(opts Options, c *Cell) (any, error) {
			sweeps := 8
			if opts.Quick {
				sweeps = 3
			}
			cfg := ssd.UpdateWAFConfig(nand.TLC, c.Values[0].Meta.(float64))
			var order []int64
			if c.Values[1].Meta.(bool) {
				order = shuffledPages(cfg.LogicalPages(), 0x9E3779B97F4A7C15, 0)
			}
			waf, rate, err := cfg.SimulateSweeps(order, sweeps)
			return regionWAF{waf, rate}, err
		},
		Tables: []TableSpec{{
			Title:  "F11: GC sensitivity of the state region",
			Header: []string{"over-provision", "workload", "WAF", "updates/s (window)"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				r := c.Aux.(regionWAF)
				return [][]any{{c.Values[0].Meta.(float64), c.Values[1].Label, r.waf, r.rate}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F11: WAF vs over-provisioning", XLabel: "OP fraction", YLabel: "WAF",
			Series: []SeriesSpec{
				{Name: "dense sequential updates", Point: wafPoint(false)},
				{Name: "sparse random updates", Point: wafPoint(true)},
			},
		}},
	}
}

// shuffledPages is a deterministic permutation of the logical pages: a
// Fisher–Yates shuffle driven by an LCG from seed, each draw shifted right
// by shift bits.
func shuffledPages(pages int64, seed uint64, shift uint) []int64 {
	order := make([]int64, pages)
	for i := range order {
		order[i] = int64(i)
	}
	state := seed
	for i := len(order) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int((state >> shift) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}
