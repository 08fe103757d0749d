package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/odp"
	"repro/internal/optim"
	"repro/internal/stats"
	"repro/internal/units"
)

// specs is the experiment registry, in data form: every experiment
// declares axes/systems/derive/tables/figures (and at most one Then grid)
// and runs through the one executor (spec.go).
var specs = []Spec{
	specT1(),
	specT2(),
	specF1(),
	specF2(),
	specF3(),
	specF4(),
	specF5(),
	specF6(),
	specF7(),
	specF8(),
	specF9(),
	specF10(),
	specF11(),
	specF12(),
	specF13(),
	specF14(),
	specF15(),
	specF16(),
	specF17(),
	specF19(),
	specF20(),
	specF21(),
}

// perfModels is the model subset used by the latency experiments: the
// offload-relevant range.
func perfModels(opts Options) []dnn.Model {
	if opts.Quick {
		return []dnn.Model{dnn.GPT2XL(), dnn.GPT13B()}
	}
	return []dnn.Model{dnn.BERTLarge(), dnn.GPT2XL(), dnn.GPT6B7(), dnn.GPT13B(), dnn.GPT30B()}
}

// modelAxis builds an axis whose values swap the model under test.
func modelAxis(models []dnn.Model) Axis {
	vals := make([]AxisValue, len(models))
	for i, m := range models {
		m := m
		vals[i] = AxisValue{
			Label: m.Name,
			X:     float64(m.Params),
			Meta:  m,
			Apply: func(c *core.Config) { c.Model = m },
		}
	}
	return Axis{Name: "model", Values: vals}
}

// intAxis builds an axis over integer settings.
func intAxis(name string, values []int, apply func(*core.Config, int)) Axis {
	vals := make([]AxisValue, len(values))
	for i, v := range values {
		v := v
		vals[i] = AxisValue{
			Label: fmt.Sprintf("%d", v),
			X:     float64(v),
			Meta:  v,
			Apply: func(c *core.Config) { apply(c, v) },
		}
	}
	return Axis{Name: name, Values: vals}
}

// systemSeries builds one figure series per spec system, each fed by that
// system's report at every cell.
func systemSeries(names []string, point func(*Cell, *core.Report) (x, y float64, ok bool)) []SeriesSpec {
	out := make([]SeriesSpec, len(names))
	for i, n := range names {
		i := i
		out[i] = SeriesSpec{Name: n, Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
			return point(c, c.Reports[i])
		}}
	}
	return out
}

// specF1 is the headline figure: optimizer-step latency of every system
// across models.
func specF1() Spec {
	systems := core.SystemNames()
	return Spec{
		ID: "F1", Title: "Optimizer-step latency per system",
		Axes:    func(opts Options) []Axis { return []Axis{modelAxis(perfModels(opts))} },
		Systems: systems,
		Tables: []TableSpec{{Build: func(o Options, g *Grid) *stats.Table {
			return core.ReportTable("F1: per-system reports", g.AllReports())
		}}},
		Figures: []FigureSpec{{
			Title: "F1: optimizer-step latency", XLabel: "params", YLabel: "opt-step seconds",
			Series: systemSeries(systems, func(c *Cell, r *core.Report) (float64, float64, bool) {
				return float64(c.Cfg.Model.Params), r.OptStepTime.Seconds(), r.Feasible
			}),
		}},
	}
}

// specF2 is the scaling study: OptimStore speedup over the host-offload
// baseline as the model grows.
func specF2() Spec {
	return Spec{
		ID: "F2", Title: "Speedup vs model scale",
		Axes: func(opts Options) []Axis {
			models := perfModels(opts)
			if !opts.Quick {
				models = append(models, dnn.GPT66B(), dnn.GPT175B())
			}
			return []Axis{modelAxis(models)}
		},
		Systems: []string{"hostoffload", "optimstore"},
		Tables: []TableSpec{{
			Title:  "F2: speedup vs model scale",
			Header: []string{"model", "params", "offload-s", "optimstore-s", "speedup", "e2e-speedup"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				off, opt := c.Reports[0], c.Reports[1]
				m := c.Cfg.Model
				return [][]any{{m.Name, dnn.FormatCount(m.Params), off.OptStepTime.Seconds(),
					opt.OptStepTime.Seconds(), opt.Speedup(off),
					float64(off.StepTime) / float64(opt.StepTime)}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F2: OptimStore speedup vs host offload", XLabel: "params", YLabel: "speedup ×",
			Series: []SeriesSpec{
				{Name: "opt-step speedup", Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return float64(c.Cfg.Model.Params), c.Reports[1].Speedup(c.Reports[0]), true
				}},
				{Name: "end-to-end speedup", Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return float64(c.Cfg.Model.Params),
						float64(c.Reports[0].StepTime) / float64(c.Reports[1].StepTime), true
				}},
			},
		}},
	}
}

// specF3 is the per-optimizer comparison on a fixed model.
func specF3() Spec {
	return Spec{
		ID: "F3", Title: "Per-optimizer comparison",
		Axes: func(opts Options) []Axis {
			kinds := optim.Kinds()
			if opts.Quick {
				kinds = []optim.Kind{optim.SGD, optim.Adam, optim.LAMB}
			}
			vals := make([]AxisValue, len(kinds))
			for i, k := range kinds {
				k := k
				vals[i] = AxisValue{
					Label: k.String(),
					X:     float64(optim.StateWordsFor(k)),
					Meta:  k,
					Apply: func(c *core.Config) { c.Optimizer = k },
				}
			}
			return []Axis{{Name: "optimizer", Values: vals}}
		},
		Systems: []string{"hostoffload", "ctrlisp", "optimstore"},
		Tables: []TableSpec{{
			Title: "F3: per-optimizer optimizer-step latency (GPT-13B)",
			Header: []string{"optimizer", "state-words", "offload-s", "ctrl-isp-s",
				"optimstore-s", "speedup-vs-offload"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				k := c.Values[0].Meta.(optim.Kind)
				off, ctl, opt := c.Reports[0], c.Reports[1], c.Reports[2]
				return [][]any{{k.String(), optim.StateWordsFor(k), off.OptStepTime.Seconds(),
					ctl.OptStepTime.Seconds(), opt.OptStepTime.Seconds(), opt.Speedup(off)}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F3: speedup per optimizer", XLabel: "state words", YLabel: "speedup ×",
			Series: []SeriesSpec{{Name: "optimstore vs offload",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					k := c.Values[0].Meta.(optim.Kind)
					return float64(optim.StateWordsFor(k)), c.Reports[2].Speedup(c.Reports[0]), true
				}}},
		}},
	}
}

// specF4 is the energy breakdown on GPT-13B.
func specF4() Spec {
	return Spec{
		ID: "F4", Title: "Energy breakdown",
		Systems: []string{"hostoffload", "ctrlisp", "optimstore"},
		Tables: []TableSpec{
			{
				Title:  "F4: per-parameter step energy (GPT-13B, Adam, mixed precision)",
				Header: []string{"system", "total-J", "pJ/param", "reduction-vs-offload"},
				Rows: func(o Options, g *Grid, c *Cell) [][]any {
					base := c.Reports[0].Energy.Total()
					var rows [][]any
					for _, r := range c.Reports {
						rows = append(rows, []any{r.System, r.Energy.Total(),
							r.EnergyPerParamPJ(c.Cfg.Model.Params), base / r.Energy.Total()})
					}
					return rows
				},
			},
			{Build: func(o Options, g *Grid) *stats.Table {
				return core.EnergyTable("F4: energy breakdown by component (J per step)", g.AllReports())
			}},
		},
	}
}

// specF5 is the internal-parallelism sweep: channels × dies.
func specF5() Spec {
	return Spec{
		ID: "F5", Title: "Internal-parallelism sensitivity",
		Axes: func(opts Options) []Axis {
			chans := []int{2, 4, 8, 16}
			diesPer := []int{2, 4}
			if opts.Quick {
				chans = []int{4, 8}
				diesPer = []int{4}
			}
			return []Axis{
				intAxis("dies/ch", diesPer, func(c *core.Config, v int) { c.SSD.DiesPerChannel = v }),
				intAxis("channels", chans, func(c *core.Config, v int) { c.SSD.Channels = v }),
			}
		},
		Systems: []string{"optimstore", "hostoffload"},
		Tables: []TableSpec{{
			Title:  "F5: parallelism sweep (GPT-13B)",
			Header: []string{"channels", "dies/ch", "planes", "optimstore-s", "offload-s"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				return [][]any{{c.Cfg.SSD.Channels, c.Cfg.SSD.DiesPerChannel,
					c.Cfg.SSD.Geometry().Planes(),
					c.Reports[0].OptStepTime.Seconds(), c.Reports[1].OptStepTime.Seconds()}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F5: step latency vs internal parallelism", XLabel: "dies total", YLabel: "opt-step seconds",
			GroupBy: "dies/ch",
			Grouped: []GroupedSeriesSpec{
				{
					Name: func(v AxisValue) string { return fmt.Sprintf("optimstore %d dies/ch", v.Meta.(int)) },
					Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
						return float64(c.Cfg.SSD.Channels * c.Cfg.SSD.DiesPerChannel),
							c.Reports[0].OptStepTime.Seconds(), true
					},
				},
				{
					Name: func(v AxisValue) string { return fmt.Sprintf("offload %d dies/ch", v.Meta.(int)) },
					Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
						return float64(c.Cfg.SSD.Channels * c.Cfg.SSD.DiesPerChannel),
							c.Reports[1].OptStepTime.Seconds(), true
					},
				},
			},
		}},
	}
}

// specF6 is the ODP design-space sweep: lanes and clock.
func specF6() Spec {
	return Spec{
		ID: "F6", Title: "ODP throughput sensitivity",
		Axes: func(opts Options) []Axis {
			lanes := []int{1, 2, 4, 8, 16, 32}
			clocks := []int{200, 400}
			if opts.Quick {
				lanes = []int{1, 8, 32}
				clocks = []int{400}
			}
			return []Axis{
				intAxis("clock-MHz", clocks, func(c *core.Config, v int) { c.ODP.ClockMHz = v }),
				intAxis("lanes", lanes, func(c *core.Config, v int) { c.ODP.Lanes = v }),
			}
		},
		Systems: []string{"optimstore"},
		Tables: []TableSpec{{
			Title:  "F6: ODP sweep (GPT-13B, Adam)",
			Header: []string{"lanes", "clock-MHz", "elems/s-per-die", "optimstore-s"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				return [][]any{{c.Cfg.ODP.Lanes, c.Cfg.ODP.ClockMHz,
					c.Cfg.ODP.ThroughputElemsPerSec(13), c.Reports[0].OptStepTime.Seconds()}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F6: step latency vs ODP throughput", XLabel: "lanes", YLabel: "opt-step seconds",
			GroupBy: "clock-MHz",
			Grouped: []GroupedSeriesSpec{{
				Name: func(v AxisValue) string { return fmt.Sprintf("%d MHz", v.Meta.(int)) },
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return float64(c.Cfg.ODP.Lanes), c.Reports[0].OptStepTime.Seconds(), true
				},
			}},
		}},
	}
}

// specF7 is the data-layout ablation: the OptimStore engine on each
// placement strategy, with the colocated baseline (cell 0) normalising
// every row — the cross-cell reference the Rows hook's *Grid access exists
// for.
func specF7() Spec {
	return Spec{
		ID: "F7", Title: "Data-layout ablation",
		Axes: func(opts Options) []Axis {
			strats := layout.Strategies()
			vals := make([]AxisValue, len(strats))
			for i, strat := range strats {
				strat := strat
				vals[i] = AxisValue{
					Label: strat.String(),
					X:     float64(i),
					Meta:  strat,
					Apply: func(c *core.Config) { c.Layout = strat },
				}
			}
			return []Axis{{Name: "layout", Values: vals}}
		},
		Systems: []string{"optimstore"},
		Derive: func(opts Options, c *Cell) (any, error) {
			lay, err := layout.New(c.Cfg.SSD.Geometry(), c.Cfg.Comps(), c.Cfg.SimUnits(),
				c.Values[0].Meta.(layout.Strategy))
			if err != nil {
				return nil, err
			}
			return lay.ColocationFraction(), nil
		},
		Tables: []TableSpec{{
			Title:  "F7: layout ablation (GPT-13B, Adam, OptimStore engine)",
			Header: []string{"layout", "colocated-frac", "optimstore-s", "bus-GB", "slowdown-vs-colocated"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				baseline := g.Cells[0].Reports[0].OptStepTime.Seconds()
				sec := c.Reports[0].OptStepTime.Seconds()
				return [][]any{{c.Values[0].Label, c.Aux.(float64), sec,
					units.Bytes(c.Reports[0].BusBytes).GBf(), sec / baseline}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F7: layout ablation", XLabel: "strategy index", YLabel: "opt-step seconds",
			Series: []SeriesSpec{{Name: "optimstore",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return float64(c.Index), c.Reports[0].OptStepTime.Seconds(), true
				}}},
		}},
	}
}

// specF8 is the precision ablation, including block-wise 8-bit quantized
// optimizer state; each cell prices a TLC lifetime from its OptimStore
// run.
func specF8() Spec {
	return Spec{
		ID: "F8", Title: "Precision ablation",
		Axes: func(opts Options) []Axis {
			precs := []optim.Precision{optim.FP32, optim.Mixed16, optim.Q8State}
			vals := make([]AxisValue, len(precs))
			for i, prec := range precs {
				prec := prec
				vals[i] = AxisValue{
					Label: prec.String(),
					X:     float64(i),
					Meta:  prec,
					Apply: func(c *core.Config) { c.Precision = prec },
				}
			}
			return []Axis{{Name: "precision", Values: vals}}
		},
		Systems: []string{"hostoffload", "optimstore"},
		Tables: []TableSpec{{
			Title: "F8: precision ablation (GPT-13B, Adam)",
			Header: []string{"precision", "system", "opt-step-s", "pcie-GB", "nand-prog-GB",
				"energy-J", "tlc-lifetime-steps"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				end := lifetime(g, c)
				var rows [][]any
				for _, r := range c.Reports {
					life := "-"
					if r.System == "optimstore" && end.Fits {
						life = fmt.Sprintf("%.0f", end.LifetimeSteps)
					}
					rows = append(rows, []any{c.Values[0].Label, r.System, r.OptStepTime.Seconds(),
						units.Bytes(r.PCIeBytes).GBf(), units.Bytes(r.NANDProgramBytes).GBf(),
						r.Energy.Total(), life})
				}
				return rows
			},
		}},
	}
}

// specF10 is the end-to-end throughput study: tokens/s per system across
// models.
func specF10() Spec {
	systems := []string{"hostoffload", "ctrlisp", "optimstore"}
	return Spec{
		ID: "F10", Title: "End-to-end training throughput",
		Axes:    func(opts Options) []Axis { return []Axis{modelAxis(perfModels(opts))} },
		Systems: systems,
		Tables: []TableSpec{{
			Title:  "F10: end-to-end training throughput (batch 8)",
			Header: []string{"model", "system", "fwdbwd-s", "opt-step-s", "step-s", "tokens/s"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				var rows [][]any
				for _, r := range c.Reports {
					rows = append(rows, []any{c.Cfg.Model.Name, r.System, r.FwdBwdTime.Seconds(),
						r.OptStepTime.Seconds(), r.StepTime.Seconds(), r.TokensPerSec})
				}
				return rows
			},
		}},
		Figures: []FigureSpec{{
			Title: "F10: tokens/s", XLabel: "params", YLabel: "tokens/s",
			Series: systemSeries(systems, func(c *Cell, r *core.Report) (float64, float64, bool) {
				return float64(c.Cfg.Model.Params), r.TokensPerSec, true
			}),
		}},
	}
}

// specF12 is the ODP silicon-cost table across lane counts — no
// simulation at all, just the cost model per cell.
func specF12() Spec {
	type lanePoint struct {
		p odp.Params
		c odp.Cost
	}
	return Spec{
		ID: "F12", Title: "ODP area and power",
		Axes: func(opts Options) []Axis {
			return []Axis{intAxis("lanes", []int{1, 2, 4, 8, 16, 32}, func(*core.Config, int) {})}
		},
		Derive: func(opts Options, c *Cell) (any, error) {
			p := odp.DefaultParams()
			p.Lanes = c.Values[0].Meta.(int)
			return lanePoint{p: p, c: odp.CostFor(p)}, nil
		},
		Tables: []TableSpec{{
			Title:  "F12: on-die processing unit cost model",
			Header: []string{"lanes", "buffer-KiB", "area-mm2", "pct-of-70mm2-die", "static-mW", "pJ/op"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				lp := c.Aux.(lanePoint)
				return [][]any{{c.Values[0].Meta.(int), lp.p.BufferKB, lp.c.AreaMM2,
					lp.c.DieAreaPct, lp.c.StaticMW, lp.c.DynamicPJ}}
			},
		}},
	}
}

// specF13 is the sparse-update extension: DLRM-style training touching a
// fraction of the parameters per step.
func specF13() Spec {
	return Spec{
		ID: "F13", Title: "Sparse embedding-table updates (extension)",
		Axes: func(opts Options) []Axis {
			fractions := []float64{0.0001, 0.001, 0.01, 0.1}
			if opts.Quick {
				fractions = []float64{0.001, 0.1}
			}
			vals := make([]AxisValue, len(fractions))
			for i, frac := range fractions {
				frac := frac
				vals[i] = AxisValue{
					Label: fmt.Sprintf("%g", frac),
					X:     frac,
					Meta:  frac,
					Apply: func(c *core.Config) {
						model := dnn.DLRM()
						model.SparseFraction = frac
						c.Model = model
					},
				}
			}
			return []Axis{{Name: "update-fraction", Values: vals}}
		},
		Systems: []string{"hostoffload", "optimstore"},
		Tables: []TableSpec{{
			Title:  "F13: sparse embedding-table updates (DLRM-24B class, Adam)",
			Header: []string{"update-fraction", "touched-GB/step", "offload-s", "optimstore-s", "speedup"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				off, opt := c.Reports[0], c.Reports[1]
				touchedGB := units.Bytes(c.Cfg.TouchedUnits() * c.Cfg.ResidentBytesPerUnit()).GBf()
				return [][]any{{c.Values[0].Meta.(float64), touchedGB, off.OptStepTime.Seconds(),
					opt.OptStepTime.Seconds(), opt.Speedup(off)}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F13: step latency vs update fraction", XLabel: "fraction", YLabel: "opt-step seconds",
			Series: systemSeries([]string{"hostoffload", "optimstore"},
				func(c *Cell, r *core.Report) (float64, float64, bool) {
					return c.Values[0].Meta.(float64), r.OptStepTime.Seconds(), true
				}),
		}},
	}
}

// specF14 is the checkpointing extension: host streaming vs in-storage
// copyback, analytic per model.
func specF14() Spec {
	return Spec{
		ID: "F14", Title: "Optimizer-state checkpointing (extension)",
		Axes: func(opts Options) []Axis {
			models := []dnn.Model{dnn.GPT2XL(), dnn.GPT13B()}
			if !opts.Quick {
				models = append(models, dnn.GPT6B7(), dnn.GPT30B())
			}
			return []Axis{modelAxis(models)}
		},
		Derive: func(opts Options, c *Cell) (any, error) { return core.Checkpoint(c.Cfg) },
		Tables: []TableSpec{{
			Title: "F14: optimizer-state checkpointing",
			Header: []string{"model", "state-GB", "host-stream-s", "in-storage-copy-s",
				"speedup", "2x-capacity-ok"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				r := c.Aux.(*core.CheckpointReport)
				return [][]any{{c.Cfg.Model.Name, units.Bytes(r.StateBytes).GBf(),
					r.HostStreamTime.Seconds(), r.InStorageCopyTime.Seconds(), r.Speedup, r.CapacityOK}}
			},
		}},
	}
}

// specF15 is the overlap-model ablation: the scalar hidden-fraction
// formula vs the layer-wise flow line, both composed from the same
// simulated optimizer step. The table is row-per-system over a
// column-per-variant grid, so it renders via Build.
func specF15() Spec {
	return Spec{
		ID: "F15", Title: "Overlap-model ablation (extension)",
		Axes: func(opts Options) []Axis {
			return []Axis{{Name: "overlap", Values: []AxisValue{
				{Label: "no-overlap", X: 0, Apply: func(c *core.Config) { c.OverlapFraction = 0 }},
				{Label: "scalar-50%", X: 1},
				{Label: "layerwise", X: 2, Apply: func(c *core.Config) { c.LayerwiseOverlap = true }},
			}}}
		},
		Systems: []string{"hostoffload", "optimstore"},
		Tables: []TableSpec{{Build: func(o Options, g *Grid) *stats.Table {
			t := stats.NewTable("F15: optimizer/backward overlap models (GPT-13B, Adam)",
				"system", "no-overlap-s", "scalar-50%-s", "layerwise-s", "exposed-opt-s")
			for si, sys := range g.Systems {
				none, scalar, layered := g.Cells[0].Reports[si], g.Cells[1].Reports[si], g.Cells[2].Reports[si]
				t.AddRow(sys, none.StepTime.Seconds(), scalar.StepTime.Seconds(),
					layered.StepTime.Seconds(), (layered.StepTime - layered.FwdBwdTime).Seconds())
			}
			return t
		}}},
	}
}

// clusterAt prices cell c's shard report as one data-parallel step of
// specF16, against the workers=1 cell, whose configuration is the whole
// model and whose report is the single-worker rate. It runs at render
// time, once every report exists; an error fails the render (Grid.fail).
func clusterAt(g *Grid, c *Cell) *core.ClusterReport {
	var one *Cell
	for _, cell := range g.Cells {
		if cell.Values[0].Meta.(int) == 1 {
			one = cell
		}
	}
	r, err := core.RunCluster(one.Cfg, core.DefaultCluster(c.Values[0].Meta.(int)), c.Reports[0], one.Reports[0])
	if err != nil {
		g.fail(err)
		return &core.ClusterReport{}
	}
	return r
}

// specF16 is the data-parallel scaling extension: each cell runs
// OptimStore on its 1/N shard of the model, and the cluster model prices
// collectives, step time and efficiency from those reports.
func specF16() Spec {
	return Spec{
		ID: "F16", Title: "Data-parallel cluster scaling (extension)",
		Axes: func(opts Options) []Axis {
			workers := []int{1, 2, 4, 8, 16}
			if opts.Quick {
				workers = []int{1, 4, 16}
			}
			return []Axis{intAxis("workers", workers, func(c *core.Config, n int) {
				c.Model.Params = core.ShardParams(c.Model.Params, n)
			})}
		},
		Systems: []string{"optimstore"},
		Tables: []TableSpec{{
			Title:  "F16: data-parallel scaling (GPT-13B, Adam, 25 GB/s ring)",
			Header: []string{"workers", "shard-opt-s", "allreduce-s", "step-s", "tokens/s", "efficiency"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				r := clusterAt(g, c)
				return [][]any{{c.Values[0].Meta.(int), r.ShardOptStep.Seconds(), r.AllReduce.Seconds(),
					r.StepTime.Seconds(), r.TokensPerSec, r.Efficiency}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F16: cluster throughput", XLabel: "workers", YLabel: "tokens/s",
			Series: []SeriesSpec{{Name: "optimstore cluster",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return c.Values[0].X, clusterAt(g, c).TokensPerSec, true
				}}},
		}},
	}
}

// specF21 is the subgroup-depth sensitivity of the interleaved-offloading
// baseline (extension): K partitions the resident state into subgroups
// whose prefetch/update/write-back phases overlap. Host staging memory
// shrinks as ~3/K of the state, while the admission window narrows to
// three subgroups — the sweep shows a flat latency plateau until the
// window collapses below the pipeline's fill depth.
func specF21() Spec {
	return Spec{
		ID: "F21", Title: "Interleaved-offload subgroup-depth sensitivity (extension)",
		Axes: func(opts Options) []Axis {
			depths := []int{1, 2, 4, 8, 16, 32}
			if opts.Quick {
				depths = []int{1, 4, 16}
			}
			return []Axis{intAxis("subgroups", depths,
				func(c *core.Config, v int) { c.InterleaveDepth = v })}
		},
		Systems: []string{"interleaved"},
		Tables: []TableSpec{{
			Title:  "F21: subgroup-depth sweep (GPT-13B, Adam)",
			Header: []string{"K", "staging-frac", "opt-step-s", "link-util"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				frac := 3.0 / float64(c.Cfg.Depth())
				if frac > 1 {
					frac = 1
				}
				return [][]any{{c.Cfg.Depth(), frac,
					c.Reports[0].OptStepTime.Seconds(), c.Reports[0].LinkUtil}}
			},
		}},
		Figures: []FigureSpec{{
			Title: "F21: step latency vs subgroup depth", XLabel: "subgroups K", YLabel: "opt-step seconds",
			Series: []SeriesSpec{{Name: "interleaved",
				Point: func(o Options, g *Grid, c *Cell) (float64, float64, bool) {
					return float64(c.Cfg.Depth()), c.Reports[0].OptStepTime.Seconds(), true
				}}},
		}},
	}
}
