// Command tune runs the roofline-pruned design-space autotuner
// (internal/search) and reports the Pareto frontier of step time, energy
// per step, and flash lifetime.
//
// Every grid candidate is priced analytically (core.BoundFor) before any
// simulation; candidates whose optimistic bounds are already dominated by
// a simulated point are discarded, so the simulation budget concentrates
// on the frontier. Output is deterministic — byte-identical at every
// -parallel width.
//
// Usage:
//
//	tune -model GPT-13B -budget 64
//	tune -system hostoffload -units 256 -csv out/frontier.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/search"
)

func main() {
	var (
		model    = flag.String("model", "GPT-13B", "model name from the zoo")
		system   = flag.String("system", "optimstore", "system to tune")
		budget   = flag.Int("budget", 64, "maximum number of simulations")
		units    = flag.Int64("units", 512, "simulation window in update units")
		parallel = flag.Int("parallel", runtime.NumCPU(), "worker goroutines per simulation wave (1 = sequential)")
		csvOut   = flag.String("csv", "", "also write the frontier CSV to this file")
	)
	flag.Parse()

	m, err := dnn.ByName(*model)
	if err != nil {
		fail(err)
	}
	base := core.DefaultConfig(m)
	base.MaxSimUnits = *units

	res, err := search.Run(base, search.DefaultSpace(), search.Options{
		System:   *system,
		Budget:   *budget,
		Parallel: *parallel,
	})
	if err != nil {
		fail(err)
	}

	fmt.Print(res.Table().String())
	fmt.Println()
	fmt.Print(res.Summary().String())

	if *csvOut != "" {
		if dir := filepath.Dir(*csvOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(err)
			}
		}
		if err := os.WriteFile(*csvOut, []byte(res.CSV()), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "tune: wrote %s\n", *csvOut)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tune:", err)
	os.Exit(1)
}
