package experiments

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/nand"
	"repro/internal/units"
)

// lifetime prices cell c's flash lifetime at the step time of the cell's
// OptimStore report, with the state region in the cell configuration's
// own cell mode. It runs at render time, once every report exists; an
// error fails the render (Grid.fail).
func lifetime(g *Grid, c *Cell) *core.EnduranceReport {
	rep, err := core.RunEndurance(c.Cfg, g.report(c, "optimstore").StepTime)
	if err != nil {
		g.fail(err)
		return &core.EnduranceReport{}
	}
	return rep
}

// specF9 is the endurance study: the state region in each cell mode
// trades program latency (step time) against endurance and capacity
// (lifetime), on a model whose state fits; then per model in TLC. Each
// cell mode is simulated and priced at its own step time.
func specF9() Spec {
	return Spec{
		ID: "F9", Title: "Endurance and lifetime",
		Axes: func(Options) []Axis {
			cells := []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC}
			vals := make([]AxisValue, len(cells))
			for i, cell := range cells {
				vals[i] = AxisValue{Label: cell.String(), X: float64(i),
					Apply: func(c *core.Config) { c.SSD.Nand = c.SSD.Nand.InCell(cell) }}
			}
			return []Axis{{Name: "cell", Values: vals}}
		},
		Systems: []string{"optimstore"},
		Tables: []TableSpec{{
			Title: "F9: endurance of the state region (GPT-13B, Adam)",
			Header: []string{"cell", "tPROG/page", "opt-step-s", "device-TB", "state-fits", "WAF",
				"lifetime-steps", "lifetime-days"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				rep := lifetime(g, c)
				row := []any{c.Values[0].Label, c.Cfg.SSD.Nand.ProgramLatency.String(),
					c.Reports[0].OptStepTime.Seconds(), units.Bytes(rep.DeviceBytes).TBf()}
				if !rep.Fits {
					return [][]any{append(row, false, "-", "-", "-")}
				}
				return [][]any{append(row, true, rep.SweepWAF, rep.LifetimeSteps, rep.LifetimeDays)}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F9: lifetime vs cell mode", XLabel: "cell index", YLabel: "lifetime steps",
			Series: []SeriesSpec{{Name: "lifetime",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					rep := lifetime(g, c)
					return c.Values[0].X, rep.LifetimeSteps, rep.Fits
				}}},
		}, {
			Title: "F9: step time vs cell mode", XLabel: "bits per cell", YLabel: "opt-step seconds",
			Series: []SeriesSpec{{Name: "optimstore",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return float64(c.Index + 1), c.Reports[0].OptStepTime.Seconds(), true
				}}},
		}},
		Then: &Spec{
			Axes: func(opts Options) []Axis {
				models := []dnn.Model{dnn.GPT2XL(), dnn.GPT13B()}
				if !opts.Quick {
					models = append(models, dnn.GPT6B7(), dnn.GPT30B())
				}
				return []Axis{modelAxis(models)}
			},
			Systems: []string{"optimstore"},
			Tables: []TableSpec{{
				Title:  "F9b: per-model TLC lifetime",
				Header: []string{"model", "state-GB", "lifetime-steps", "lifetime-days"},
				Rows: func(o Options, g *Grid, c *Cell) [][]any {
					rep := lifetime(g, c)
					if !rep.Fits {
						return [][]any{{c.Cfg.Model.Name, units.Bytes(rep.StateBytes).GBf(), "-", "-"}}
					}
					return [][]any{{c.Cfg.Model.Name, units.Bytes(rep.StateBytes).GBf(),
						rep.LifetimeSteps, rep.LifetimeDays}}
				},
			}},
		},
	}
}
