package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/nand"
	"repro/internal/optim"
	"repro/internal/sim"
)

// endurance prices cfg's lifetime with its state region in the given cell
// mode, at the step time of an OptimStore run in that mode, as the
// experiments do.
func endurance(t *testing.T, cfg Config, cell nand.CellType) *EnduranceReport {
	t.Helper()
	cfg.SSD.Nand = cfg.SSD.Nand.InCell(cell)
	rep, err := RunEndurance(cfg, mustRun(t, SystemOptimStore, cfg).StepTime)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEnduranceSLCBeatsTLC(t *testing.T) {
	cfg := testConfig(dnn.GPT2XL())
	tlc := endurance(t, cfg, nand.TLC)
	slc := endurance(t, cfg, nand.SLC)
	if !tlc.Fits || !slc.Fits {
		t.Fatalf("GPT-2-XL state (%d B) should fit both modes", tlc.StateBytes)
	}
	// SLC has ~33× the P/E budget of TLC but 1/2 the pages per block in
	// this model; lifetime must still be far longer.
	if slc.LifetimeSteps <= 5*tlc.LifetimeSteps {
		t.Fatalf("SLC lifetime %.3g steps not >> TLC %.3g", slc.LifetimeSteps, tlc.LifetimeSteps)
	}
	if tlc.LifetimeSteps <= 0 || tlc.LifetimeDays <= 0 {
		t.Fatalf("degenerate TLC lifetime: %+v", tlc)
	}
}

func TestEnduranceWAFNearOneForSequentialUpdates(t *testing.T) {
	rep := endurance(t, testConfig(dnn.GPT2XL()), nand.TLC)
	// Dense optimizer updates sweep the state sequentially, invalidating
	// whole blocks: the full drive's spare blocks clear the GC watermark,
	// so write amplification is exactly 1.
	if math.Float64bits(rep.SweepWAF) != math.Float64bits(1) {
		t.Fatalf("sequential-update WAF = %v, want 1", rep.SweepWAF)
	}
	if rep.ProgramBytesPerStep < float64(rep.StateBytes) {
		t.Fatal("program bytes cannot be below state bytes")
	}
}

// TestEnduranceQ8ScaleOverhead pins the Q8State footprint fix: block-wise
// quantization stores one float32 scale per 256-element block per state
// tensor (8/256 B/param for Adam's two moments), so the endurance report's
// state footprint — and therefore program traffic per step — must be
// strictly larger than the scale-free 6 B/param figure the accounting used
// to report.
func TestEnduranceQ8ScaleOverhead(t *testing.T) {
	cfg := testConfig(dnn.GPT2XL())
	cfg.Precision = optim.Q8State
	rep := endurance(t, cfg, nand.TLC)
	scaleFree := cfg.Model.Params * int64(cfg.Spec().MasterBytes+cfg.Spec().StateBytes)
	if rep.StateBytes <= scaleFree {
		t.Fatalf("Q8 StateBytes %d not above scale-free %d: per-block scale overhead lost",
			rep.StateBytes, scaleFree)
	}
	want := int64(float64(cfg.Model.Params) * (6 + 8.0/optim.QuantBlockSize))
	if rep.StateBytes != want {
		t.Fatalf("Q8 StateBytes %d, want %d (params × (6 + 8/256))", rep.StateBytes, want)
	}
	if rep.ProgramBytesPerStep <= float64(scaleFree) {
		t.Fatalf("Q8 ProgramBytesPerStep %.0f not above scale-free state %d",
			rep.ProgramBytesPerStep, scaleFree)
	}
}

func TestEnduranceDoesNotFit(t *testing.T) {
	// GPT-175B Adam state is 2.1 TB; a 0.7 TB SLC-mode device cannot hold it.
	rep := endurance(t, testConfig(dnn.GPT175B()), nand.SLC)
	if rep.Fits {
		t.Fatalf("175B state (%d B) reported as fitting %d B device", rep.StateBytes, rep.DeviceBytes)
	}
}

// TestEnduranceRejectsUndecidedWAF checks that a drive whose sweep WAF
// cannot be decided fails loudly: at 0.2% over-provisioning a 1024-block
// plane keeps about 2 spare blocks, below GC high water 4.
func TestEnduranceRejectsUndecidedWAF(t *testing.T) {
	cfg := testConfig(dnn.GPT2XL())
	cfg.SSD.OverProvision = 0.002
	rep, err := RunEndurance(cfg, sim.Second) // the step time plays no part
	if err == nil {
		t.Fatalf("OP 0.002 priced with WAF %v", rep.SweepWAF)
	}
	for _, want := range []string{"OP 0.002", "GC high water 4", "short by"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestMeasureUpdateWAFMoreOPLessWAF(t *testing.T) {
	// Shrinking over-provisioning must not reduce write amplification.
	low, err := MeasureUpdateWAF(nand.TLC, 0.07, 3)
	if err != nil {
		t.Fatal(err)
	}
	high, err := MeasureUpdateWAF(nand.TLC, 0.28, 3)
	if err != nil {
		t.Fatal(err)
	}
	if high > low+1e-9 {
		t.Fatalf("WAF(OP=28%%)=%v > WAF(OP=7%%)=%v", high, low)
	}
}

// TestMeasureUpdateWAFPins pins the exact float64 bits of the simulated
// WAF on the scaled-down measurement device, for every cell type at the
// over-provisioning values the default search space visits. A change to
// the FTL, GC or device addressing must leave them bit-identical. At 7%
// the device's 16-block planes keep about one spare block, so GC
// relocates; SweepWAF refuses that device (TestSweepWAFMatchesSimulation).
func TestMeasureUpdateWAFPins(t *testing.T) {
	const heavy = 0x4020c07cbd87b20a // 8.3759516933578375: 7% OP relocates
	const one = 0x3ff0000000000000   // 1: whole blocks go stale
	want := map[float64]uint64{0.07: heavy, 0.125: one, 0.25: one}
	for _, cell := range []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC} {
		for _, op := range []float64{0.07, 0.125, 0.25} {
			got, err := MeasureUpdateWAF(cell, op, 3)
			if err != nil {
				t.Fatalf("%v op=%v: %v", cell, op, err)
			}
			if bits := math.Float64bits(got); bits != want[op] {
				t.Errorf("%v op=%v: WAF %.17g (bits %#x), want bits %#x",
					cell, op, got, bits, want[op])
			}
		}
	}
}

// BenchmarkMeasureUpdateWAF times one MeasureUpdateWAF call (TLC, three
// steps) at each over-provisioning value of the default search space. At 7% GC relocates heavily; at 12.5% and 25%
// whole blocks go stale and the sweep is mostly plain updates.
func BenchmarkMeasureUpdateWAF(b *testing.B) {
	for _, op := range []float64{0.07, 0.125, 0.25} {
		b.Run(fmt.Sprintf("op=%v", op), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MeasureUpdateWAF(nand.TLC, op, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
