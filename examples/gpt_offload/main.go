// gpt_offload reproduces the motivating scenario of the paper: training a
// GPT-class model whose Adam state (12 bytes/parameter) exceeds GPU memory,
// so it must live on an NVMe SSD. The example walks the full system
// comparison for GPT-13B — feasibility, optimizer-step latency, end-to-end
// throughput across batch sizes, and the energy bill — and prints where
// each design is bottlenecked.
//
// Run with: go run ./examples/gpt_offload
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/stats"
	"repro/internal/units"
)

func main() {
	model := dnn.GPT13B()
	cfg := core.DefaultConfig(model)
	cfg.MaxSimUnits = 512

	spec := cfg.Spec()
	fmt.Printf("Model: %s\n", model)
	fmt.Printf("Optimizer state: %v B/param -> %.0f GB resident in flash\n",
		spec.ResidentBytes(), float64(model.Params)*spec.ResidentBytes()/units.BytesPerGB)
	fmt.Printf("GPU memory: %.0f GB (%s) -> state is %.1fx too large to keep on-device\n\n",
		cfg.GPU.MemoryGB, cfg.GPU.Name,
		float64(model.Params)*spec.ResidentBytes()/(cfg.GPU.MemoryGB*units.BytesPerGB))

	// System comparison at the default batch.
	var reports []*core.Report
	for _, name := range core.SystemNames() {
		reports = append(reports, run(name, cfg))
	}
	fmt.Print(core.ReportTable("GPT-13B, Adam, mixed precision, batch 8", reports))
	fmt.Println()
	fmt.Print(core.EnergyTable("Energy per optimizer step (J)", reports))
	fmt.Println()

	// Where is each system bottlenecked? Compare external vs internal
	// traffic against the interface bandwidths.
	fmt.Println("Bottleneck analysis:")
	fmt.Printf("  PCIe effective:       %6.2f GB/s per direction\n", cfg.Link.EffectiveGBps())
	fmt.Printf("  channel buses total:  %6.2f GB/s\n", cfg.SSD.ChannelMBps().GBps())
	fmt.Printf("  NAND program total:   %6.2f GB/s  <- floor for every design that persists state\n",
		cfg.SSD.InternalProgramMBps().GBps())
	fmt.Println()

	// Batch scaling: the optimizer step is batch-independent, so larger
	// batches amortise it and close the throughput gap.
	t := stats.NewTable("End-to-end tokens/s vs batch size",
		"batch", "hostoffload", "optimstore", "advantage")
	for _, batch := range []int{1, 4, 8, 16, 32} {
		c := cfg
		c.Batch = batch
		off, ost := run("hostoffload", c), run("optimstore", c)
		t.AddRow(batch, off.TokensPerSec, ost.TokensPerSec,
			fmt.Sprintf("%.2fx", ost.TokensPerSec/off.TokensPerSec))
	}
	fmt.Print(t)
}

// run builds and runs one system, exiting on error.
func run(name string, cfg core.Config) *core.Report {
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
