package experiments

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/stats"
)

// f20Storm is the mixed fault storm F20 sweeps when the CLI didn't arm
// one: rates dense enough that every kind fires several times inside even
// the quick simulation window (windows are sub-millisecond to a few
// milliseconds; rates are per second of simulated time).
func f20Storm(opts Options) fault.Spec {
	if opts.Fault.Enabled() {
		return opts.Fault
	}
	return fault.Spec{
		Seed:            8,
		PowerLossPerSec: 50_000,
		DieFailPerSec:   20_000,
		ECCPerSec:       100_000,
		HorizonMs:       2,
	}
}

// specF20 compares the checkpoint policies under a mixed fault storm. The
// policy is pure accounting — the same seed fires the identical fault set
// under each policy — so the table isolates the trade the paper's
// recovery discussion frames: in-place (ODP copyback) checkpoints are
// cheap to take and to restore but program NAND (WAF cost) and lose a
// die's checkpoint shard with the die; host-pull checkpoints pay the
// external link both ways but write nothing device-side.
func specF20() Spec {
	stormed := func(opts Options, model dnn.Model) core.Config {
		cfg := baseConfig(opts, model)
		cfg.Fault = f20Storm(opts)
		return cfg
	}
	return Spec{
		ID: "F20", Title: "Fault storms: checkpoint policy comparison (extension)",
		// Policy comparison on the flagship offload point: OptimStore on a
		// model that cannot stay GPU-resident.
		Base: func(opts Options) core.Config { return stormed(opts, dnn.GPT13B()) },
		Axes: func(Options) []Axis {
			policies := []fault.Policy{fault.CheckpointNone, fault.CheckpointInPlace, fault.CheckpointHostPull}
			vals := make([]AxisValue, len(policies))
			for i, p := range policies {
				vals[i] = AxisValue{Label: p.String(), Meta: p, Apply: func(c *core.Config) { c.Checkpoint = p }}
			}
			return []Axis{{Name: "checkpoint", Values: vals}}
		},
		Systems: []string{core.SystemOptimStore},
		Tables: []TableSpec{{Build: func(o Options, g *Grid) *stats.Table {
			return core.FaultTable("Checkpoint policies under a mixed fault storm (OptimStore, GPT-13B)", g.AllReports())
		}}},
		// The same storm surfaced to every system (BERT-Large so the
		// GPU-resident reference is feasible and prices its analytic row).
		Then: &Spec{
			Base: func(opts Options) core.Config {
				cfg := stormed(opts, dnn.BERTLarge())
				cfg.Checkpoint = fault.CheckpointInPlace
				return cfg
			},
			Systems: core.SystemNames(),
			Tables: []TableSpec{{Build: func(o Options, g *Grid) *stats.Table {
				return core.FaultTable("Fault storm across systems (in-place checkpoints, BERT-Large)", g.AllReports())
			}}},
		},
	}
}
