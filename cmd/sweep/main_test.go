package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/tracing"
)

// TestMain lets the test binary stand in for sweep: with asMainEnv set,
// it runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMainEnv = "SWEEP_TEST_AS_MAIN"

// TestBadNamesFailBeforeHeader runs sweep with an unknown dimension, an
// unknown system and an unsupported PCIe generation: each must exit
// non-zero with nothing on stdout, so `sweep ... > out.csv` never leaves a
// header-only file behind.
func TestBadNamesFailBeforeHeader(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // what stderr must name
	}{
		{[]string{"-dim", "nope", "-values", "2", "-units", "8"}, []string{"nope"}},
		{[]string{"-systems", "nope", "-values", "2", "-units", "8"}, []string{"nope"}},
		{[]string{"-dim", "pciegen", "-values", "3,2", "-units", "8"}, []string{"gen 2", "3, 4, 5"}},
	} {
		args := tc.args
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("sweep %v: %v, want a non-zero exit", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("sweep %v wrote %q to stdout, want nothing", args, stdout.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("sweep %v: stderr %q does not name %q", args, stderr.String(), want)
			}
		}
	}
}

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

// TestBuskbpsAlias checks busmbps sets the MB/s field and the retired
// buskbps spelling, which labelled MB/s values as kb/s, is an unknown
// dimension.
func TestBuskbpsAlias(t *testing.T) {
	m, _ := dnn.ByName("GPT-13B")
	cfg := core.DefaultConfig(m)
	if err := apply(&cfg, "busmbps", 800); err != nil {
		t.Fatal(err)
	}
	if cfg.SSD.Nand.BusMBps != 800 {
		t.Fatalf("BusMBps = %d, want 800", cfg.SSD.Nand.BusMBps)
	}
	if err := apply(&cfg, "buskbps", 800); err == nil {
		t.Fatal("buskbps should be an unknown dimension")
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
