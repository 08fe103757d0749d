// layout_study explores the two design dimensions that make or break
// in-storage optimization: where the (weight, momentum, variance) pages of
// each parameter slice physically live, and which cell mode the state
// region uses. The first decides whether updates stay on-die; the second
// decides how long the flash survives the update stream.
//
// Run with: go run ./examples/layout_study
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/stats"
	"repro/internal/units"
)

func main() {
	cfg := core.DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 512

	// --- Placement ---------------------------------------------------------
	fmt.Println("How state placement decides update locality (GPT-13B, Adam):")
	lt := stats.NewTable("", "layout", "units-on-one-die", "opt-step-s", "bus-GB", "vs-colocated")
	var base float64
	for i, strat := range layout.Strategies() {
		c := cfg
		c.Layout = strat
		r, err := run(c)
		if err != nil {
			log.Fatal(err)
		}
		lay, err := layout.New(c.SSD.Geometry(), c.Comps(), c.SimUnits(), strat)
		if err != nil {
			log.Fatal(err)
		}
		sec := r.OptStepTime.Seconds()
		if i == 0 {
			base = sec
		}
		lt.AddRow(strat.String(),
			fmt.Sprintf("%.0f%%", lay.ColocationFraction()*100),
			sec, units.Bytes(r.BusBytes).GBf(), fmt.Sprintf("%.2fx", sec/base))
	}
	fmt.Print(lt)
	fmt.Println(`
  colocated: all three pages of a slice on one die, different planes
             -> reads/programs overlap, zero bus traffic for state.
  linear:    naive log-append order -> half the slices straddle dies.
  split:     component-sharded (tensor-parallel style) -> every update
             gathers pages across dies over the channel buses.`)

	// --- Endurance ----------------------------------------------------------
	// Lifetime is priced, not simulated: one OptimStore run sets the
	// training cadence that converts steps to days for every cell mode.
	fmt.Println("\nHow the cell mode decides lifetime (GPT-13B, Adam):")
	opt, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	et := stats.NewTable("", "cell", "capacity-TB", "fits", "WAF", "lifetime-steps", "lifetime-days")
	for _, cell := range []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC} {
		rep, err := core.RunEndurance(cfg, cell, opt.StepTime)
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Fits {
			et.AddRow(cell.String(), units.Bytes(rep.DeviceBytes).TBf(), false, "-", "-", "-")
			continue
		}
		et.AddRow(cell.String(), units.Bytes(rep.DeviceBytes).TBf(), true,
			rep.SweepWAF, rep.LifetimeSteps, rep.LifetimeDays)
	}
	fmt.Print(et)
	fmt.Println(`
  Every training step programs the full 156 GB of Adam state. TLC's 3K P/E
  cycles make that a consumable; an SLC-mode state region (1 bit/cell,
  ~100K usable cycles) trades 3x capacity for ~30-50x lifetime — the
  deployment-defining knob for in-storage training.`)
}

// run simulates OptimStore on one configuration.
func run(cfg core.Config) (*core.Report, error) {
	sys, err := core.NewSystem("optimstore", cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
