// Package repro's benchmark harness regenerates every table and figure of
// the reconstructed OptimStore evaluation (DESIGN.md §3): one benchmark per
// experiment ID, each reporting the experiment's headline quantity as a
// custom metric next to the usual ns/op.
//
// Run everything with `go test -bench=. -benchmem`, or one experiment with
// `go test -bench=BenchmarkF1`. Benchmarks use the quick simulation window
// so the suite completes in seconds; use cmd/optimstore for full-window
// runs.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/experiments"
)

var quick = experiments.Options{Quick: true}

// runExperiment executes one experiment per benchmark iteration and
// returns the last result for metric extraction.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// runSystem builds and runs one system.
func runSystem(b *testing.B, name string, cfg core.Config) *core.Report {
	b.Helper()
	sys, err := core.NewSystem(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// headline runs the two headline systems once and reports speedup metrics.
func headline(b *testing.B, model dnn.Model) (*core.Report, *core.Report) {
	b.Helper()
	cfg := core.DefaultConfig(model)
	cfg.MaxSimUnits = 256
	return runSystem(b, "hostoffload", cfg), runSystem(b, "optimstore", cfg)
}

func BenchmarkT1_Config(b *testing.B) {
	res := runExperiment(b, "T1")
	b.ReportMetric(float64(res.Tables[0].NumRows()), "config-rows")
}

func BenchmarkT2_Models(b *testing.B) {
	res := runExperiment(b, "T2")
	b.ReportMetric(float64(res.Tables[0].NumRows()), "models")
}

func BenchmarkF1_StepLatency(b *testing.B) {
	runExperiment(b, "F1")
	off, opt := headline(b, dnn.GPT13B())
	b.ReportMetric(opt.OptStepTime.Seconds(), "optimstore-step-s")
	b.ReportMetric(off.OptStepTime.Seconds(), "offload-step-s")
	b.ReportMetric(opt.Speedup(off), "speedup-x")
}

func BenchmarkF2_ModelScaling(b *testing.B) {
	res := runExperiment(b, "F2")
	// Last point of the opt-step speedup series = largest model.
	s := res.Figures[0].Series[0]
	b.ReportMetric(s.Points[len(s.Points)-1].Y, "speedup-at-max-scale-x")
}

func BenchmarkF3_Optimizers(b *testing.B) {
	res := runExperiment(b, "F3")
	b.ReportMetric(float64(res.Tables[0].NumRows()), "optimizers")
}

func BenchmarkF4_Energy(b *testing.B) {
	runExperiment(b, "F4")
	off, opt := headline(b, dnn.GPT13B())
	b.ReportMetric(off.Energy.Total()/opt.Energy.Total(), "energy-reduction-x")
	b.ReportMetric(opt.EnergyPerParamPJ(opt.Params), "pJ-per-param")
}

func BenchmarkF5_Parallelism(b *testing.B) {
	res := runExperiment(b, "F5")
	s := res.Figures[0].Series[0]
	first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
	b.ReportMetric(first/last, "scaling-gain-x")
}

func BenchmarkF6_ODPThroughput(b *testing.B) {
	res := runExperiment(b, "F6")
	s := res.Figures[0].Series[0]
	b.ReportMetric(s.Points[0].Y/s.Points[len(s.Points)-1].Y, "lane-scaling-gain-x")
}

func BenchmarkF7_Layout(b *testing.B) {
	res := runExperiment(b, "F7")
	s := res.Figures[0].Series[0]
	b.ReportMetric(s.Points[len(s.Points)-1].Y/s.Points[0].Y, "split-slowdown-x")
}

func BenchmarkF8_Precision(b *testing.B) {
	res := runExperiment(b, "F8")
	b.ReportMetric(float64(res.Tables[0].NumRows()), "rows")
}

func BenchmarkF9_Endurance(b *testing.B) {
	res := runExperiment(b, "F9")
	pts := res.Figures[0].Series[0].Points
	b.ReportMetric(pts[0].Y, "slc-lifetime-steps")
	b.ReportMetric(pts[2].Y, "tlc-lifetime-steps")
}

func BenchmarkF10_EndToEnd(b *testing.B) {
	runExperiment(b, "F10")
	off, opt := headline(b, dnn.GPT13B())
	b.ReportMetric(opt.TokensPerSec, "optimstore-tokens-per-s")
	b.ReportMetric(off.TokensPerSec, "offload-tokens-per-s")
}

func BenchmarkF11_GC(b *testing.B) {
	res := runExperiment(b, "F11")
	rnd, _ := res.Figures[0].Series[1].YAt(0.07)
	b.ReportMetric(rnd, "waf-random-at-7pct-op")
}

func BenchmarkF12_ODPCost(b *testing.B) {
	res := runExperiment(b, "F12")
	b.ReportMetric(float64(res.Tables[0].NumRows()), "design-points")
}

// BenchmarkSimulatorThroughput measures the discrete-event simulator
// itself: simulated NAND operations per wall-clock second for the default
// OptimStore window — the number that decides how large a window is
// affordable.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := core.DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 512
	b.ResetTimer()
	var ops float64
	for i := 0; i < b.N; i++ {
		r := runSystem(b, "optimstore", cfg)
		ops = float64(r.SimUnits) * float64(3+3) // reads+programs per unit
	}
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds(), "sim-nand-ops/s")
}

func BenchmarkF13_SparseUpdates(b *testing.B) {
	res := runExperiment(b, "F13")
	// Speedup at the sparsest measured fraction.
	off := res.Figures[0].Series[0].Points[0].Y
	opt := res.Figures[0].Series[1].Points[0].Y
	b.ReportMetric(off/opt, "sparse-speedup-x")
}

func BenchmarkF14_Checkpoint(b *testing.B) {
	res := runExperiment(b, "F14")
	tab := res.Tables[0]
	b.ReportMetric(float64(tab.NumRows()), "models")
}

func BenchmarkF15_Overlap(b *testing.B) {
	res := runExperiment(b, "F15")
	b.ReportMetric(float64(res.Tables[0].NumRows()), "systems")
}

func BenchmarkF16_Cluster(b *testing.B) {
	res := runExperiment(b, "F16")
	pts := res.Figures[0].Series[0].Points
	b.ReportMetric(pts[len(pts)-1].Y/pts[0].Y, "scaling-x")
}

func BenchmarkF17_ReadQoS(b *testing.B) {
	res := runExperiment(b, "F17")
	tab := res.Tables[0]
	// p99 improvement factor from suspend.
	parse := func(s string) float64 {
		var v float64
		fmt.Sscanf(s, "%f", &v)
		return v
	}
	off := parse(tab.Row(0)[2])
	on := parse(tab.Row(1)[2])
	if on > 0 {
		b.ReportMetric(off/on, "p99-improvement-x")
	}
}

func BenchmarkF18_CellMode(b *testing.B) {
	res := runExperiment(b, "F18")
	pts := res.Figures[0].Series[0].Points
	b.ReportMetric(pts[3].Y/pts[0].Y, "qlc-vs-slc-step-x")
}

func BenchmarkF19_StreamSeparation(b *testing.B) {
	res := runExperiment(b, "F19")
	tab := res.Tables[0]
	parse := func(s string) float64 {
		var v float64
		fmt.Sscanf(s, "%f", &v)
		return v
	}
	off, on := parse(tab.Row(0)[1]), parse(tab.Row(1)[1])
	if on > 0 {
		b.ReportMetric(off/on, "waf-reduction-x")
	}
}
