// Command optimstore runs the reconstructed OptimStore evaluation: every
// table and figure from DESIGN.md §3, or a single experiment by ID.
//
// Usage:
//
//	optimstore -list
//	optimstore -exp all            # full suite (minutes)
//	optimstore -exp F1 -quick      # one experiment, small sim window
//	optimstore -exp F4 -format markdown
//	optimstore -exp all -svg out/  # additionally write figures as SVG
//	optimstore -exp all -html report.html  # one self-contained HTML report
//	optimstore -exp F20 -quick -fault seed=1,pl=2000,df=500,ecc=5000,horizon=5 -checkpoint inplace
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/tracing"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		quick    = flag.Bool("quick", false, "small simulation windows (seconds instead of minutes)")
		format   = flag.String("format", "text", "output format: text, markdown or csv")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		svgDir   = flag.String("svg", "", "also write each figure as an SVG into this directory")
		htmlTo   = flag.String("html", "", "also write the whole run as a self-contained HTML report")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker goroutines for independent simulation points (1 = sequential)")
		check    = flag.Bool("check", false, "audit every simulated report against the physical-invariant registry (internal/invariant); violations fail the run")
		traceTo  = flag.String("trace", "", "run the five systems plus the checkpoint comparison with event tracing and write a Chrome trace_event JSON file here (open in chrome://tracing or ui.perfetto.dev); prints the trace-derived metrics instead of the experiment suite")
		faultArg = flag.String("fault", "", "arm a fault storm on every simulated point: seed=N,pl=R,df=R,ecc=R,start=MS,horizon=MS (rates per second of sim time; empty = disabled)")
		ckptArg  = flag.String("checkpoint", "none", "checkpoint policy priced into every report: none, inplace (ODP copyback) or hostpull")
		system   = flag.String("system", "", "run a single system ("+strings.Join(core.SystemNames(), ", ")+") on the GPT-13B default configuration, audit it against the invariant registry and print its report; exits 1 on any violation")
	)
	flag.Parse()

	faultSpec, err := fault.ParseSpec(*faultArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimstore:", err)
		os.Exit(2)
	}
	ckpt, err := fault.ParsePolicy(*ckptArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimstore:", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-4s %s\n", id, title)
		}
		return
	}

	if *system != "" {
		runSystem(*system, *quick)
		return
	}

	switch *format {
	case "text", "markdown", "csv":
	default:
		fmt.Fprintf(os.Stderr, "optimstore: unknown format %q\n", *format)
		os.Exit(2)
	}

	opts := experiments.Options{
		Quick: *quick, Parallel: *parallel, CheckInvariants: *check,
		Fault: faultSpec, Checkpoint: ckpt,
	}
	if *traceTo != "" {
		res, traces, summary, err := experiments.TraceSystems(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optimstore:", err)
			os.Exit(1)
		}
		f, err := os.Create(*traceTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "optimstore:", err)
			os.Exit(1)
		}
		if err := tracing.WriteChrome(f, traces...); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "optimstore:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "optimstore:", summary)
		printResult(*format, res)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceTo)
		return
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Experiments fan across the worker pool; results come back in the
	// requested order, so the emitted report stream is identical at any
	// parallelism.
	all, summary, err := experiments.RunMany(ids, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimstore:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "optimstore:", summary)
	for _, res := range all {
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, res); err != nil {
				fmt.Fprintln(os.Stderr, "optimstore:", err)
				os.Exit(1)
			}
		}
		printResult(*format, res)
	}
	if *htmlTo != "" {
		if err := os.WriteFile(*htmlTo, []byte(report.HTML(all)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "optimstore:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *htmlTo)
	}
}

// runSystem runs one named system on the GPT-13B default configuration,
// audits the report against the physical-invariant registry, prints the
// report table, and exits 1 if any invariant is violated.
func runSystem(name string, quick bool) {
	cfg := core.DefaultConfig(dnn.GPT13B())
	if quick {
		cfg.MaxSimUnits = 128
	}
	sys, err := core.NewSystem(name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimstore:", err)
		os.Exit(2)
	}
	r, err := sys.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimstore:", err)
		os.Exit(1)
	}
	violations := invariant.Check(name, cfg, r)
	fmt.Print(core.ReportTable("system: "+r.System, []*core.Report{r}))
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "optimstore: invariant violation:", v)
		}
		os.Exit(1)
	}
}

// printResult renders one experiment result to stdout in the selected
// format.
func printResult(format string, res *experiments.Result) {
	switch format {
	case "text":
		fmt.Print(res)
	case "markdown":
		fmt.Printf("## %s: %s\n\n", res.ID, res.Title)
		for _, t := range res.Tables {
			fmt.Println(t.Markdown())
		}
		for _, f := range res.Figures {
			fmt.Println(f.Table().Markdown())
		}
	case "csv":
		for _, t := range res.Tables {
			fmt.Println(t.CSV())
		}
		for _, f := range res.Figures {
			fmt.Println(f.Table().CSV())
		}
	}
}

// writeSVGs renders every figure of a result into dir, log-x when the x
// range spans orders of magnitude (model-scale sweeps).
func writeSVGs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, f := range res.Figures {
		opts := plot.DefaultOptions()
		if min, max, ok := f.XRange(); ok && min > 0 && max/min >= 100 {
			opts.LogX = true
		}
		name := fmt.Sprintf("%s_%d.svg", res.ID, i+1)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(plot.SVG(f, opts)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(dir, name))
	}
	return nil
}
