package core_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/nand"
	"repro/internal/sim"
)

// quickConfig is the configuration the quick experiment suite starts
// every cell from: the paper default at a 256-unit simulation window.
func quickConfig(model dnn.Model) core.Config {
	cfg := core.DefaultConfig(model)
	cfg.MaxSimUnits = 256
	return cfg
}

// withCell is F18's cell-mode axis: the state region's NAND in the given
// cell mode, keeping the configuration's simulation window.
func withCell(cfg core.Config, cell nand.CellType) core.Config {
	n := nand.ParamsFor(cell)
	n.BlocksPerPlane = cfg.SSD.Nand.BlocksPerPlane
	cfg.SSD.Nand = n
	return cfg
}

// pinWriter prints one line per report field: floats as their exact
// float64 bits, everything else as its value.
type pinWriter struct{ b strings.Builder }

func (w *pinWriter) float(label, field string, v float64) {
	fmt.Fprintf(&w.b, "%s %s %#016x\n", label, field, math.Float64bits(v))
}

func (w *pinWriter) value(label, field string, v any) {
	fmt.Fprintf(&w.b, "%s %s %v\n", label, field, v)
}

func (w *pinWriter) endurance(label string, rep *core.EnduranceReport, step sim.Time) {
	w.value(label, "Model", rep.Model)
	w.value(label, "Optimizer", rep.Optimizer)
	w.value(label, "Cell", rep.Cell)
	w.value(label, "StateBytes", rep.StateBytes)
	w.value(label, "DeviceBytes", rep.DeviceBytes)
	w.value(label, "Fits", rep.Fits)
	w.float(label, "SweepWAF", rep.SweepWAF)
	w.float(label, "ProgramBytesPerStep", rep.ProgramBytesPerStep)
	w.float(label, "LifetimeSteps", rep.LifetimeSteps)
	w.float(label, "LifetimeDays", rep.LifetimeDays)
	w.value(label, "StepTime", int64(step))
}

func (w *pinWriter) cluster(label string, rep *core.ClusterReport) {
	w.value(label, "System", rep.System)
	w.value(label, "Model", rep.Model)
	w.value(label, "Workers", rep.Workers)
	w.value(label, "ShardOptStep", int64(rep.ShardOptStep))
	w.value(label, "AllReduce", int64(rep.AllReduce))
	w.value(label, "AllGather", int64(rep.AllGather))
	w.value(label, "FwdBwd", int64(rep.FwdBwd))
	w.value(label, "StepTime", int64(rep.StepTime))
	w.float(label, "TokensPerSec", rep.TokensPerSec)
	w.float(label, "Efficiency", rep.Efficiency)
}

// TestEnduranceClusterPins pins every field of the endurance and cluster
// reports the F9, F9b, F16 and F18 experiments print, at quick windows
// and priced from OptimStore runs as the experiments price them: the
// exact float64 bits of every float and the value of every other field,
// with the step time lifetime days are priced at. The rendered experiment tables round to three significant
// digits, so only this test can show that a change to how the reports
// are produced leaves them bit-identical. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test -run TestEnduranceClusterPins ./internal/core/.
func TestEnduranceClusterPins(t *testing.T) {
	var w pinWriter
	cells := []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC}
	run := func(label string, cfg core.Config) *core.Report {
		sys, err := core.NewSystem(core.SystemOptimStore, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		r, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return r
	}
	endurance := func(label string, cfg core.Config, cell nand.CellType) {
		step := run(label, cfg).StepTime
		rep, err := core.RunEndurance(cfg, cell, step)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w.endurance(label, rep, step)
	}
	for _, cell := range cells {
		endurance("F9/"+cell.String(), quickConfig(dnn.GPT13B()), cell)
	}
	for _, m := range []dnn.Model{dnn.GPT2XL(), dnn.GPT13B()} {
		endurance("F9b/"+m.Name, quickConfig(m), nand.TLC)
	}
	single := run("F16/1", quickConfig(dnn.GPT13B()))
	for _, n := range []int{1, 4, 16} {
		label := fmt.Sprintf("F16/%d", n)
		cfg := quickConfig(dnn.GPT13B())
		shard := cfg
		shard.Model.Params = core.ShardParams(cfg.Model.Params, n)
		rep, err := core.RunCluster(cfg, core.DefaultCluster(n), run(label, shard), single)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w.cluster(label, rep)
	}
	for _, cell := range cells {
		endurance("F18/"+cell.String(), withCell(quickConfig(dnn.GPT13B()), cell), cell)
	}
	got := w.b.String()

	const path = "testdata/pricing_pins.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("pricing pins diverge at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pricing pins length %d lines, want %d", len(gl), len(wl))
	}
}
