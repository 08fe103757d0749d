// Command sweep runs one-dimensional parameter sweeps of the system
// comparison and emits CSV, for plotting or regression tracking.
//
// Points run in parallel across a worker pool (-parallel, default one
// worker per CPU); rows are always emitted in sweep order, and -parallel 1
// reproduces the sequential behaviour byte for byte.
//
// Usage:
//
//	sweep -dim channels -values 2,4,8,16 -model GPT-13B
//	sweep -dim lanes    -values 1,4,16   -systems optimstore
//	sweep -dim pciegen  -values 3,4,5    -parallel 8
//	sweep -dim batch    -values 1,4,16,64
//	sweep -dim channels -values 4,8 -fault seed=1,pl=2000,df=500,ecc=5000,horizon=5 -checkpoint inplace
//
// The design-space autotuner is cmd/tune.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/invariant"
	"repro/internal/runner"
	"repro/internal/tracing"
	"repro/internal/units"
)

func main() {
	var (
		dim      = flag.String("dim", "channels", "sweep dimension: channels, dies, lanes, clock, pciegen, batch, busmbps")
		values   = flag.String("values", "2,4,8,16", "comma-separated values")
		model    = flag.String("model", "GPT-13B", "model name from the zoo")
		systems  = flag.String("systems", "hostoffload,interleaved,ctrlisp,optimstore", "systems to run")
		units    = flag.Int64("units", 512, "simulation window in update units")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker goroutines (1 = sequential)")
		check    = flag.Bool("check", false, "audit every point against the physical-invariant registry (internal/invariant); violations fail the sweep")
		traceTo  = flag.String("trace", "", "record an event trace per sweep point and write one combined Chrome trace_event JSON file here (one process lane per point; open in chrome://tracing or ui.perfetto.dev)")
		faultArg = flag.String("fault", "", "arm a fault storm on every sweep point: seed=N,pl=R,df=R,ecc=R,start=MS,horizon=MS (rates per second of sim time; empty = disabled)")
		ckptArg  = flag.String("checkpoint", "none", "checkpoint policy priced into every point: none, inplace (ODP copyback) or hostpull")
	)
	flag.Parse()

	m, err := dnn.ByName(*model)
	if err != nil {
		fail(err)
	}
	vals, err := parseValues(*values)
	if err != nil {
		fail(err)
	}
	faultSpec, err := fault.ParseSpec(*faultArg)
	if err != nil {
		fail(err)
	}
	ckpt, err := fault.ParsePolicy(*ckptArg)
	if err != nil {
		fail(err)
	}
	spec := sweepSpec{
		Dim:        *dim,
		Values:     vals,
		Model:      m,
		Systems:    splitList(*systems),
		Units:      *units,
		Parallel:   *parallel,
		Check:      *check,
		Trace:      *traceTo != "",
		Fault:      faultSpec,
		Checkpoint: ckpt,
	}

	if err := spec.validate(); err != nil {
		fail(err)
	}
	fmt.Print(sweepHeader())
	var traces []*tracing.Trace
	summary, err := spec.stream(func(row sweepRow) {
		fmt.Print(row.csv)
		if row.trace != nil {
			traces = append(traces, row.trace)
		}
	})
	if err != nil {
		fail(err)
	}
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fail(err)
		}
		if err := tracing.WriteChrome(f, traces...); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", *traceTo)
	}
	fmt.Fprintln(os.Stderr, "sweep:", summary)
}

// sweepSpec is one fully parsed sweep invocation.
type sweepSpec struct {
	Dim      string
	Values   []int
	Model    dnn.Model
	Systems  []string
	Units    int64
	Parallel int
	Check    bool
	// Trace records an event trace per point; rows then carry the trace
	// out of the pool in grid order, so a combined Chrome file is
	// byte-identical at every Parallel width.
	Trace bool
	// Fault arms the seed-driven fault storm on every point; Checkpoint
	// selects the policy priced into the ckpt_s/recovery_s columns. Each
	// point owns its schedule, so faulted sweeps stay byte-identical at
	// every Parallel width.
	Fault      fault.Spec
	Checkpoint fault.Policy
}

// point is one (value, system) cell of the sweep grid.
type point struct {
	value  int
	system string
}

// sweepRow carries one formatted CSV row plus the simulated-event count of
// the point that produced it (surfaced to the runner for the run summary)
// and, when tracing is on, the point's recorded event trace.
type sweepRow struct {
	csv    string
	events int64
	trace  *tracing.Trace
}

func (r sweepRow) EventCount() int64 { return r.events }

func (r sweepRow) TraceEventCount() int64 {
	if r.trace == nil {
		return 0
	}
	return int64(r.trace.Len())
}

// sweepHeader returns the CSV header line. The feasible column marks
// points a system cannot run at all (metrics are NaN there) so downstream
// plots keep aligned x-axes instead of silently losing rows.
func sweepHeader() string {
	return "dim,value,system,feasible,opt_step_s,step_s,tokens_per_s,pcie_gb,bus_gb,nand_prog_gb,energy_j,faults,ckpt_s,recovery_s\n"
}

// stream runs every sweep point across the worker pool, emitting rows
// strictly in grid order, and returns the pool's run summary.
func (s sweepSpec) stream(emit func(sweepRow)) (runner.Summary, error) {
	var points []point
	for _, v := range s.Values {
		for _, name := range s.Systems {
			points = append(points, point{value: v, system: name})
		}
	}
	jobs := make([]runner.Job[sweepRow], len(points))
	for i, p := range points {
		p := p
		jobs[i] = func() (sweepRow, error) { return s.runPoint(p) }
	}
	var results []runner.Result[sweepRow]
	var firstErr error
	runner.Stream(s.Parallel, jobs, func(r runner.Result[sweepRow]) {
		results = append(results, r)
		if r.Err != nil {
			if firstErr == nil {
				firstErr = r.Err
			}
			return
		}
		emit(r.Value)
	})
	return runner.Summarize(results), firstErr
}

// runPoint builds an independent configuration and system for one grid
// cell and formats its CSV row. Each call owns its whole simulation — no
// state is shared with sibling points.
func (s sweepSpec) runPoint(p point) (sweepRow, error) {
	cfg := core.DefaultConfig(s.Model)
	cfg.MaxSimUnits = s.Units
	cfg.Fault = s.Fault
	cfg.Checkpoint = s.Checkpoint
	if err := apply(&cfg, s.Dim, p.value); err != nil {
		return sweepRow{}, err
	}
	var tr *tracing.Trace
	if s.Trace {
		tr = tracing.New(fmt.Sprintf("%s=%d/%s", s.Dim, p.value, p.system))
		cfg.Trace = tr
	}
	sys, err := core.NewSystem(p.system, cfg)
	if err != nil {
		return sweepRow{}, err
	}
	// A value the configuration rejects (batch 0, zero channels) is a point
	// no system can run: it gets an infeasible row like any other.
	if cfg.Validate() != nil {
		return sweepRow{csv: s.infeasibleRow(p.value, sys.Name()), trace: tr}, nil
	}
	r, err := sys.Run()
	if err != nil {
		return sweepRow{}, err
	}
	if s.Check {
		if v := invariant.Audit(p.system, cfg, r); len(v) > 0 {
			return sweepRow{}, fmt.Errorf("%s %s=%d violates invariants: %s",
				p.system, s.Dim, p.value, strings.Join(v, "; "))
		}
	}
	if !r.Feasible {
		return sweepRow{csv: s.infeasibleRow(p.value, r.System), events: r.EventCount(), trace: tr}, nil
	}
	faults := r.PowerLossFaults + r.DieFailFaults + r.ECCFaults
	return sweepRow{
		csv: fmt.Sprintf("%s,%d,%s,true,%.6f,%.6f,%.2f,%.3f,%.3f,%.3f,%.3f,%d,%.6f,%.6f\n",
			s.Dim, p.value, r.System, r.OptStepTime.Seconds(), r.StepTime.Seconds(),
			r.TokensPerSec, units.Bytes(r.PCIeBytes).GBf(), units.Bytes(r.BusBytes).GBf(),
			units.Bytes(r.NANDProgramBytes).GBf(), r.Energy.Total(),
			faults, r.CheckpointTime.Seconds(), r.RecoveryTime.Seconds()),
		events: r.EventCount(),
		trace:  tr,
	}, nil
}

// infeasibleRow formats the row of a point the system cannot run: every
// metric is NaN.
func (s sweepSpec) infeasibleRow(value int, system string) string {
	return fmt.Sprintf("%s,%d,%s,false,NaN,NaN,NaN,NaN,NaN,NaN,NaN,NaN,NaN,NaN\n", s.Dim, value, system)
}

// validate rejects an unknown dimension or system before the CSV header
// is written, so a bad flag leaves no header-only file that looks like a
// finished sweep.
func (s sweepSpec) validate() error {
	if _, ok := dims[s.Dim]; !ok {
		return fmt.Errorf("unknown sweep dimension %q", s.Dim)
	}
	for _, name := range s.Systems {
		if _, ok := core.LookupSystem(name); !ok {
			return fmt.Errorf("unknown system %q (want one of %s)", name, strings.Join(core.SystemNames(), ", "))
		}
	}
	return nil
}

// dims maps each sweep dimension to the configuration field it sets.
var dims = map[string]func(cfg *core.Config, v int){
	"channels": func(cfg *core.Config, v int) { cfg.SSD.Channels = v },
	"dies":     func(cfg *core.Config, v int) { cfg.SSD.DiesPerChannel = v },
	"lanes":    func(cfg *core.Config, v int) { cfg.ODP.Lanes = v },
	"clock":    func(cfg *core.Config, v int) { cfg.ODP.ClockMHz = v },
	"pciegen":  func(cfg *core.Config, v int) { cfg.Link = host.PCIe(v, 4) },
	"batch":    func(cfg *core.Config, v int) { cfg.Batch = v },
	"busmbps":  func(cfg *core.Config, v int) { cfg.SSD.Nand.BusMBps = v },
}

// apply sets one sweep dimension on the configuration.
func apply(cfg *core.Config, dim string, v int) error {
	set, ok := dims[dim]
	if !ok {
		return fmt.Errorf("unknown sweep dimension %q", dim)
	}
	set(cfg, v)
	return nil
}

// parseValues splits the -values flag into integers.
func parseValues(s string) ([]int, error) {
	var vals []int
	for _, v := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", v, err)
		}
		vals = append(vals, n)
	}
	return vals, nil
}

// splitList splits a comma-separated flag into trimmed names.
func splitList(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(n))
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
