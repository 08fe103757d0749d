package experiments

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/nand"
	"repro/internal/stats"
	"repro/internal/units"
)

// runF9 regenerates the endurance study: device lifetime under the
// training update stream, per cell mode, on a model whose state fits.
func runF9(opts Options) (*Result, error) {
	t := stats.NewTable("F9: endurance of the state region (GPT-13B, Adam)",
		"cell", "device-TB", "state-fits", "WAF", "lifetime-steps", "lifetime-days")
	fig := stats.NewFigure("F9: lifetime vs cell mode", "cell index", "lifetime steps")
	s := fig.AddSeries("lifetime")
	cells := []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC}
	for i, cell := range cells {
		cfg := baseConfig(opts, dnn.GPT13B())
		rep, err := core.RunEndurance(cfg, cell)
		if err != nil {
			return nil, err
		}
		if !rep.Fits {
			t.AddRow(cell.String(), units.Bytes(rep.DeviceBytes).TBf(), false, "-", "-", "-")
			continue
		}
		t.AddRow(cell.String(), units.Bytes(rep.DeviceBytes).TBf(), true, rep.SweepWAF,
			rep.LifetimeSteps, rep.LifetimeDays)
		s.Add(float64(i), rep.LifetimeSteps)
	}
	t2 := stats.NewTable("F9b: per-model TLC lifetime",
		"model", "state-GB", "lifetime-steps", "lifetime-days")
	models := []dnn.Model{dnn.GPT2XL(), dnn.GPT13B()}
	if !opts.Quick {
		models = append(models, dnn.GPT6B7(), dnn.GPT30B())
	}
	for _, m := range models {
		cfg := baseConfig(opts, m)
		rep, err := core.RunEndurance(cfg, nand.TLC)
		if err != nil {
			return nil, err
		}
		if !rep.Fits {
			t2.AddRow(m.Name, units.Bytes(rep.StateBytes).GBf(), "-", "-")
			continue
		}
		t2.AddRow(m.Name, units.Bytes(rep.StateBytes).GBf(), rep.LifetimeSteps, rep.LifetimeDays)
	}
	return &Result{Tables: []*stats.Table{t, t2}, Figures: []*stats.Figure{fig}}, nil
}
