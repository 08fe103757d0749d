package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/tracing"
)

func testSpec(t *testing.T, parallel int) sweepSpec {
	t.Helper()
	m, err := dnn.ByName("GPT-13B")
	if err != nil {
		t.Fatal(err)
	}
	return sweepSpec{
		Dim:      "channels",
		Values:   []int{2, 4},
		Model:    m,
		Systems:  []string{"hostoffload", "optimstore"},
		Units:    64,
		Parallel: parallel,
	}
}

func collect(t *testing.T, spec sweepSpec) string {
	t.Helper()
	var b strings.Builder
	if _, err := spec.stream(func(row sweepRow) { b.WriteString(row.csv) }); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestParallelMatchesSequential pins the determinism guarantee: the same
// sweep through the worker pool is byte-identical to -parallel 1, which in
// turn matches a plain sequential loop over the grid.
func TestParallelMatchesSequential(t *testing.T) {
	seq := collect(t, testSpec(t, 1))
	par := collect(t, testSpec(t, 8))
	if seq != par {
		t.Fatalf("parallel output differs from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}

	// Reference path: no runner involved at all.
	spec := testSpec(t, 1)
	var ref strings.Builder
	for _, v := range spec.Values {
		for _, name := range spec.Systems {
			r, err := spec.runPoint(point{value: v, system: name})
			if err != nil {
				t.Fatal(err)
			}
			ref.WriteString(r.csv)
		}
	}
	if seq != ref.String() {
		t.Fatalf("runner output differs from plain loop:\n--- runner ---\n%s--- loop ---\n%s", seq, ref.String())
	}
}

// TestInfeasiblePointsEmitted checks infeasible grid cells still produce a
// row (feasible=false, NaN metrics) instead of being dropped, so CSV x-axes
// stay aligned across systems.
func TestInfeasiblePointsEmitted(t *testing.T) {
	spec := testSpec(t, 2)
	// GPT-13B Adam state cannot stay resident on a 40 GB GPU.
	spec.Systems = []string{"gpuresident", "optimstore"}
	display := map[string]string{"gpuresident": "gpu-resident", "optimstore": "optimstore"}
	out := collect(t, spec)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(spec.Values)*len(spec.Systems) {
		t.Fatalf("got %d rows, want %d:\n%s", len(lines), len(spec.Values)*len(spec.Systems), out)
	}
	for i, line := range lines {
		wantSys := spec.Systems[i%len(spec.Systems)]
		if !strings.Contains(line, ","+display[wantSys]+",") {
			t.Fatalf("row %d = %q, want system %s (order broken)", i, line, wantSys)
		}
		if wantSys == "gpuresident" {
			if !strings.Contains(line, ",false,NaN") {
				t.Fatalf("infeasible row %q missing feasible=false/NaN metrics", line)
			}
		} else if !strings.Contains(line, ",true,") {
			t.Fatalf("feasible row %q missing feasible=true", line)
		}
	}
}

// TestInvalidValuesEmitInfeasibleRows checks that a sweep value the
// configuration rejects yields a feasible=false row under each requested
// system instead of aborting the sweep, and that valid values still run.
func TestInvalidValuesEmitInfeasibleRows(t *testing.T) {
	spec := testSpec(t, 2)
	spec.Dim = "batch"
	spec.Values = []int{0, 1}
	spec.Systems = []string{"ctrlisp", "optimstore"}
	out := collect(t, spec)
	want := []string{
		"batch,0,ctrl-isp,false,NaN,",
		"batch,0,optimstore,false,NaN,",
		"batch,1,ctrl-isp,true,",
		"batch,1,optimstore,true,",
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", len(lines), len(want), out)
	}
	cols := strings.Count(sweepHeader(), ",")
	for i, line := range lines {
		if !strings.HasPrefix(line, want[i]) {
			t.Errorf("row %d = %q, want prefix %q", i, line, want[i])
		}
		if got := strings.Count(line, ","); got != cols {
			t.Errorf("row %d has %d commas, header has %d", i, got, cols)
		}
	}
}

// TestBuskbpsAlias checks the deprecated dimension name still works, maps
// to the MB/s field, and warns on the provided writer.
func TestBuskbpsAlias(t *testing.T) {
	var warn strings.Builder
	if got := canonicalDim("buskbps", &warn); got != "busmbps" {
		t.Fatalf("canonicalDim(buskbps) = %q, want busmbps", got)
	}
	if !strings.Contains(warn.String(), "deprecated") {
		t.Fatalf("no deprecation warning emitted: %q", warn.String())
	}
	warn.Reset()
	if got := canonicalDim("busmbps", &warn); got != "busmbps" || warn.Len() != 0 {
		t.Fatalf("canonicalDim(busmbps) = %q (warn %q)", got, warn.String())
	}

	m, _ := dnn.ByName("GPT-13B")
	cfg := core.DefaultConfig(m)
	if err := apply(&cfg, "busmbps", 800); err != nil {
		t.Fatal(err)
	}
	if cfg.SSD.Nand.BusMBps != 800 {
		t.Fatalf("BusMBps = %d, want 800", cfg.SSD.Nand.BusMBps)
	}
	if err := apply(&cfg, "buskbps", 800); err == nil {
		t.Fatal("raw buskbps should no longer be a valid dimension after canonicalisation")
	}
}

// TestTracedSweepDeterministicAcrossWidths records a trace per point at
// two pool widths and checks the combined Chrome file is byte-identical:
// rows carry traces out of the pool in grid order, so serialization never
// depends on completion order.
func TestTracedSweepDeterministicAcrossWidths(t *testing.T) {
	render := func(parallel int) string {
		spec := testSpec(t, parallel)
		spec.Trace = true
		var traces []*tracing.Trace
		if _, err := spec.stream(func(row sweepRow) {
			if row.trace == nil {
				t.Fatal("traced sweep emitted a row without a trace")
			}
			traces = append(traces, row.trace)
		}); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tracing.WriteChrome(&b, traces...); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatal("combined Chrome trace differs between -parallel 1 and 8")
	}
	if !strings.Contains(seq, `"channels=2/hostoffload"`) {
		t.Fatal("trace missing per-point process label")
	}
}

// TestHeaderHasFeasibleColumn pins the CSV schema.
func TestHeaderHasFeasibleColumn(t *testing.T) {
	h := sweepHeader()
	if !strings.HasPrefix(h, "dim,value,system,feasible,") {
		t.Fatalf("header = %q", h)
	}
	if !strings.HasSuffix(strings.TrimSuffix(h, "\n"), ",faults,ckpt_s,recovery_s") {
		t.Fatalf("header missing fault columns: %q", h)
	}
	if cols := strings.Count(h, ","); cols != strings.Count(
		"dim,2,channels,true,0,0,0,0,0,0,0,0,0,0", ",") {
		t.Fatalf("header has %d commas", cols)
	}
}

// TestFaultedSweepDeterministic pins golden determinism for faulted sweep
// CSV: a mixed fault storm with a checkpoint policy emits byte-identical
// rows at every pool width, the fault columns are populated, and every
// row has exactly the header's column count.
func TestFaultedSweepDeterministic(t *testing.T) {
	faulted := func(parallel int) sweepSpec {
		spec := testSpec(t, parallel)
		spec.Fault = fault.Spec{
			Seed: 11, PowerLossPerSec: 2_000, DieFailPerSec: 1_000, ECCPerSec: 4_000,
			HorizonMs: 5,
		}
		spec.Checkpoint = fault.CheckpointInPlace
		return spec
	}
	seq := collect(t, faulted(1))
	par := collect(t, faulted(8))
	if seq != par {
		t.Fatalf("faulted sweep differs across widths:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
	wantCols := strings.Count(sweepHeader(), ",")
	var fired bool
	for _, line := range strings.Split(strings.TrimSuffix(seq, "\n"), "\n") {
		if got := strings.Count(line, ","); got != wantCols {
			t.Fatalf("row has %d commas, header has %d: %q", got, wantCols, line)
		}
		f := strings.Split(line, ",")
		if f[len(f)-3] != "0" {
			fired = true
		}
	}
	if !fired {
		t.Fatal("no sweep point fired any faults")
	}
}
