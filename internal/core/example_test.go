package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/optim"
	"repro/internal/units"
)

// Example runs the headline comparison on a small simulation window: the
// in-storage system versus the host-offload baseline for GPT-13B.
func Example() {
	cfg := core.DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 256

	run := func(name string) *core.Report {
		sys, err := core.NewSystem(name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sys.Run()
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	offload, optimstore := run("hostoffload"), run("optimstore")
	fmt.Printf("PCIe traffic: offload %d GB, in-storage %d GB\n",
		units.Bytes(offload.PCIeBytes)/units.GB, units.Bytes(optimstore.PCIeBytes)/units.GB)
	fmt.Printf("in-storage wins on the optimizer step: %v\n",
		optimstore.OptStepTime < offload.OptStepTime)
	// Output:
	// PCIe traffic: offload 312 GB, in-storage 52 GB
	// in-storage wins on the optimizer step: true
}

// ExampleVerifyPagedEquivalence demonstrates the numerical claim behind
// on-die execution.
func ExampleVerifyPagedEquivalence() {
	err := core.VerifyPagedEquivalence(optim.SGD, optim.Hyper{LR: 0.01}, 1024, 64, 5, 42)
	fmt.Println("paged == monolithic:", err == nil)
	// Output:
	// paged == monolithic: true
}
