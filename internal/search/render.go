package search

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Table renders the frontier as a stats table, one row per Pareto point.
func (r *Result) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Pareto frontier (%s)", r.System),
		"rank", "channels", "dies", "planes", "bus-MBps", "over-prov",
		"layout", "optimizer", "opt-step-s", "energy-J", "lifetime-steps", "binding")
	for i, p := range r.Frontier {
		t.AddRow(i+1, p.Cfg.SSD.Channels, p.Cfg.SSD.DiesPerChannel,
			p.Cfg.SSD.Nand.PlanesPerDie, p.Cfg.SSD.Nand.BusMBps,
			p.Cfg.SSD.OverProvision, p.Cfg.Layout.String(), p.Cfg.Optimizer.String(),
			p.OptStep.Seconds(), p.Energy, p.Lifetime, p.Bound.Binding)
	}
	return t
}

// Summary renders the run statistics as a stats table.
func (r *Result) Summary() *stats.Table {
	t := stats.NewTable("Search summary", "metric", "value")
	s := r.Stats
	t.AddRow("grid candidates", s.Candidates)
	t.AddRow("invalid configs", s.Invalid)
	t.AddRow("pruned by bounds", s.Pruned)
	t.AddRow("pruned fraction", s.PrunedFraction())
	t.AddRow("memo hits", s.MemoHits)
	t.AddRow("simulated", s.Evaluated)
	t.AddRow("infeasible", s.Infeasible)
	t.AddRow("skipped (budget)", s.Skipped)
	t.AddRow("frontier size", len(r.Frontier))
	return t
}

// CSV renders the frontier in a machine-readable form, deterministic to
// the byte: fixed header, %g float formatting, hex config hash.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("rank,channels,dies,planes,bus_mbps,over_provision,layout,optimizer," +
		"opt_step_s,energy_j,lifetime_steps,binding,hash\n")
	for i, p := range r.Frontier {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%g,%s,%s,%g,%g,%g,%s,%016x\n",
			i+1, p.Cfg.SSD.Channels, p.Cfg.SSD.DiesPerChannel,
			p.Cfg.SSD.Nand.PlanesPerDie, p.Cfg.SSD.Nand.BusMBps,
			p.Cfg.SSD.OverProvision, p.Cfg.Layout, p.Cfg.Optimizer,
			p.OptStep.Seconds(), p.Energy, p.Lifetime,
			p.Bound.Binding, p.Hash)
	}
	return b.String()
}
