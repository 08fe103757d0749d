package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/nand"
	"repro/internal/optim"
)

func TestEnduranceSLCBeatsTLC(t *testing.T) {
	cfg := testConfig(dnn.GPT2XL())
	tlc, err := RunEndurance(cfg, nand.TLC, 3)
	if err != nil {
		t.Fatal(err)
	}
	slc, err := RunEndurance(cfg, nand.SLC, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	cfg := testConfig(dnn.GPT2XL())
	rep, err := RunEndurance(cfg, nand.TLC, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Dense optimizer updates sweep the state sequentially, invalidating
	// whole blocks: write amplification should be mild.
	if rep.MeasuredWAF < 1 || rep.MeasuredWAF > 1.6 {
		t.Fatalf("sequential-update WAF = %v, want ~1", rep.MeasuredWAF)
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
	rep, err := RunEndurance(cfg, nand.TLC, 3)
	if err != nil {
		t.Fatal(err)
	}
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
	cfg := testConfig(dnn.GPT175B())
	rep, err := RunEndurance(cfg, nand.SLC, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fits {
		t.Fatalf("175B state (%d B) reported as fitting %d B device", rep.StateBytes, rep.DeviceBytes)
	}
}

func TestEnduranceRejectsBadSteps(t *testing.T) {
	if _, err := RunEndurance(testConfig(dnn.GPT2XL()), nand.TLC, 1); err == nil {
		t.Fatal("steps=1 accepted")
	}
}

func TestMeasureUpdateWAFMoreOPLessWAF(t *testing.T) {
	// Shrinking over-provisioning must not reduce write amplification.
	low, err := measureUpdateWAF(nand.TLC, 0.07, 3)
	if err != nil {
		t.Fatal(err)
	}
	high, err := measureUpdateWAF(nand.TLC, 0.28, 3)
	if err != nil {
		t.Fatal(err)
	}
	if high > low+1e-9 {
		t.Fatalf("WAF(OP=28%%)=%v > WAF(OP=7%%)=%v", high, low)
	}
}

// TestMeasureUpdateWAFPins pins the exact float64 bits of the WAF the
// autotuner memoizes into every point's lifetime, for every cell type at
// the over-provisioning values the default search space visits. A change
// to the FTL, GC or device addressing must leave them bit-identical.
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

// BenchmarkMeasureUpdateWAF times one MeasureUpdateWAF call as the
// autotuner makes it (TLC, three steps) at each over-provisioning value of
// the default search space. At 7% GC relocates heavily; at 12.5% and 25%
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
