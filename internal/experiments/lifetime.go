package experiments

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/nand"
	"repro/internal/units"
)

// specF9 is the endurance study: device lifetime under the training update
// stream, per cell mode, on a model whose state fits; then per model in
// TLC.
func specF9() Spec {
	return Spec{
		ID: "F9", Title: "Endurance and lifetime",
		Axes: func(Options) []Axis {
			cells := []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC}
			vals := make([]AxisValue, len(cells))
			for i, cell := range cells {
				vals[i] = AxisValue{Label: cell.String(), X: float64(i), Meta: cell}
			}
			return []Axis{{Name: "cell", Values: vals}}
		},
		Derive: func(opts Options, c *Cell) (any, error) {
			return core.RunEndurance(c.Cfg, c.Values[0].Meta.(nand.CellType))
		},
		Tables: []TableSpec{{
			Title:  "F9: endurance of the state region (GPT-13B, Adam)",
			Header: []string{"cell", "device-TB", "state-fits", "WAF", "lifetime-steps", "lifetime-days"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				rep := c.Aux.(*core.EnduranceReport)
				if !rep.Fits {
					return [][]any{{c.Values[0].Label, units.Bytes(rep.DeviceBytes).TBf(), false, "-", "-", "-"}}
				}
				return [][]any{{c.Values[0].Label, units.Bytes(rep.DeviceBytes).TBf(), true, rep.SweepWAF,
					rep.LifetimeSteps, rep.LifetimeDays}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F9: lifetime vs cell mode", XLabel: "cell index", YLabel: "lifetime steps",
			Series: []SeriesSpec{{Name: "lifetime",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					rep := c.Aux.(*core.EnduranceReport)
					return c.Values[0].X, rep.LifetimeSteps, rep.Fits
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
			Derive: func(opts Options, c *Cell) (any, error) { return core.RunEndurance(c.Cfg, nand.TLC) },
			Tables: []TableSpec{{
				Title:  "F9b: per-model TLC lifetime",
				Header: []string{"model", "state-GB", "lifetime-steps", "lifetime-days"},
				Rows: func(o Options, g *Grid, c *Cell) [][]any {
					rep := c.Aux.(*core.EnduranceReport)
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
