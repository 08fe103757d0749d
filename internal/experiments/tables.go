package experiments

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/odp"
	"repro/internal/optim"
	"repro/internal/units"
)

// specT1 is the system-configuration table (paper analogue: "Simulation
// configuration"): one cell, its rows read off the base configuration.
func specT1() Spec {
	return Spec{
		ID: "T1", Title: "System configuration",
		Tables: []TableSpec{{
			Title:  "T1: system configuration",
			Header: []string{"component", "parameter", "value"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				cfg := c.Cfg
				n := cfg.SSD.Nand
				cost := odp.CostFor(cfg.ODP)
				return [][]any{
					{"NAND", "cell type", n.Cell.String()},
					{"NAND", "page size", fmt.Sprintf("%d KiB", units.Bytes(n.PageSize)/units.KiB)},
					{"NAND", "tR / page", n.ReadLatency.String()},
					{"NAND", "tPROG / page (wordline-amortised)", n.ProgramLatency.String()},
					{"NAND", "tBERS", n.EraseLatency.String()},
					{"NAND", "rated P/E cycles", n.PECycles},
					{"SSD", "channels × dies × planes",
						fmt.Sprintf("%d × %d × %d = %d planes", cfg.SSD.Channels, cfg.SSD.DiesPerChannel,
							n.PlanesPerDie, cfg.SSD.Geometry().Planes())},
					{"SSD", "channel bus", fmt.Sprintf("%d MB/s", n.BusMBps)},
					{"SSD", "over-provisioning", fmt.Sprintf("%.1f%%", cfg.SSD.OverProvision*100)},
					{"SSD", "internal read BW", fmt.Sprintf("%.1f GB/s", cfg.SSD.InternalReadMBps().GBps())},
					{"SSD", "internal program BW", fmt.Sprintf("%.1f GB/s", cfg.SSD.InternalProgramMBps().GBps())},
					{"ODP", "lanes × clock", fmt.Sprintf("%d × %d MHz", cfg.ODP.Lanes, cfg.ODP.ClockMHz)},
					{"ODP", "buffer", fmt.Sprintf("%d KiB", cfg.ODP.BufferKB)},
					{"ODP", "area", fmt.Sprintf("%.3f mm² (%.2f%% of die)", cost.AreaMM2, cost.DieAreaPct)},
					{"Host link", "type", cfg.Link.Name},
					{"Host link", "effective BW", fmt.Sprintf("%.2f GB/s per direction", cfg.Link.EffectiveGBps())},
					{"GPU", "type", cfg.GPU.Name},
					{"GPU", "peak / MFU", fmt.Sprintf("%.0f TFLOPS / %.2f", cfg.GPU.PeakTFLOPS, cfg.GPU.MFU)},
					{"GPU", "HBM", fmt.Sprintf("%.0f GB/s, %.0f GB", cfg.GPU.HBMGBps, cfg.GPU.MemoryGB)},
					{"Controller", "cores (CtrlISP)",
						fmt.Sprintf("%.0f GFLOPS, %.0f GB/s DRAM", cfg.CtrlCPU.GFLOPS, cfg.CtrlCPU.DRAMGBps)},
					{"Workload", "optimizer / precision", cfg.Optimizer.String() + " / " + cfg.Precision.String()},
					{"Workload", "sim window", fmt.Sprintf("%d units (scale %.0fx)", cfg.SimUnits(), cfg.ScaleFactor())},
				}
			},
		}},
	}
}

// specT2 is the model-zoo table: per-model parameter counts and per-step
// byte footprints under the default Adam/Mixed16 regime.
func specT2() Spec {
	return Spec{
		ID: "T2", Title: "Model zoo and state footprints",
		Axes: func(Options) []Axis { return []Axis{modelAxis(dnn.Zoo())} },
		Tables: []TableSpec{{
			Title: "T2: models and per-step footprints (Adam, mixed precision)",
			Header: []string{"model", "params", "state-GB", "grad-GB", "offload-traffic-GB",
				"instore-traffic-GB", "fits-A100-40G"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				spec := optim.SpecFor(optim.Adam, optim.Mixed16)
				m := c.Cfg.Model
				params := float64(m.Params)
				// GPU-resident footprint: working weights + grads + full state.
				fits := params*(spec.ResidentBytes()+float64(spec.GradBytes+spec.WeightOutBytes))*1.2 < 40e9
				return [][]any{{m.Name, dnn.FormatCount(m.Params),
					params * spec.ResidentBytes() / units.BytesPerGB,
					params * float64(spec.GradBytes) / units.BytesPerGB,
					params * spec.OffloadTrafficBytes() / units.BytesPerGB,
					params * float64(spec.HostTrafficBytes()) / units.BytesPerGB,
					fits}}
			},
		}},
	}
}
