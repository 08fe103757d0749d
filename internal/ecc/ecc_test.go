package ecc

import (
	"math"
	"testing"

	"repro/internal/approx"
	"testing/quick"

	"repro/internal/nand"
)

func TestBCHConstruction(t *testing.T) {
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CodewordBytes != 1024 || s.T != 72 {
		t.Fatalf("default scheme %+v", s)
	}
	// BCH parity for t=72 over 8 Kib codewords: 72×13 bits ≈ 11%.
	if s.ParityOverhead < 0.08 || s.ParityOverhead > 0.15 {
		t.Fatalf("parity overhead %v", s.ParityOverhead)
	}
}

func TestBCHBadArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BCH(0, 72)
}

func TestUncorrectableProbEndpoints(t *testing.T) {
	s := Default()
	if p := s.UncorrectableProb(0); !approx.Equal(p, 0) {
		t.Fatalf("p(0) = %v", p)
	}
	if p := s.UncorrectableProb(1); !approx.Equal(p, 1) {
		t.Fatalf("p(1) = %v", p)
	}
	// Far below capability: essentially zero.
	if p := s.UncorrectableProb(1e-6); p > 1e-12 {
		t.Fatalf("p(1e-6) = %v", p)
	}
	// Far above capability (λ = 8192·0.05 = 410 ≫ 72): essentially one.
	if p := s.UncorrectableProb(0.05); p < 0.999 {
		t.Fatalf("p(0.05) = %v", p)
	}
}

// Property: failure probability is monotone in RBER and in [0, 1].
func TestUncorrectableMonotoneProperty(t *testing.T) {
	s := Default()
	f := func(a, b uint16) bool {
		ra := float64(a) / float64(1<<16) * 0.02
		rb := float64(b) / float64(1<<16) * 0.02
		if ra > rb {
			ra, rb = rb, ra
		}
		pa, pb := s.UncorrectableProb(ra), s.UncorrectableProb(rb)
		return pa >= 0 && pb <= 1 && pa <= pb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPageFailProb(t *testing.T) {
	s := Default()
	// A 16 KiB page holds 16 codewords: page failure ≥ codeword failure.
	rber := 6e-3
	cw := s.UncorrectableProb(rber)
	page := s.PageFailProb(16384, rber)
	if page < cw {
		t.Fatalf("page %v < codeword %v", page, cw)
	}
	// Union bound: page ≤ 16 × codeword.
	if page > 16*cw+1e-12 {
		t.Fatalf("page %v > union bound %v", page, 16*cw)
	}
}

func TestMaxRBERConsistent(t *testing.T) {
	s := Default()
	limit := s.MaxRBER(16384, 1e-9)
	// The mainstream t=72/1KiB point tolerates a few-per-thousand RBER.
	if limit < 2e-3 || limit > 9e-3 {
		t.Fatalf("max rber = %v, outside credible range", limit)
	}
	if p := s.PageFailProb(16384, limit); p > 1e-9 {
		t.Fatalf("at returned limit, fail prob %v > target", p)
	}
	if p := s.PageFailProb(16384, limit*1.2); p < 1e-9 {
		t.Fatalf("20%% above limit should exceed target, got %v", p)
	}
}

// The ECC limit must be consistent with the wear model's default
// correctability threshold: same order of magnitude.
func TestECCGroundsWearModel(t *testing.T) {
	limit := Default().MaxRBER(16384, 1e-9)
	wm := nand.DefaultWearModel(nand.TLC)
	ratio := wm.ECCCorrectableRBER / limit
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("wear model threshold %v vs ECC-derived %v (ratio %.2f)",
			wm.ECCCorrectableRBER, limit, ratio)
	}
}

// Stronger ECC extends usable block life.
func TestStrongerECCMoreLife(t *testing.T) {
	weak := BCH(1024, 40)
	strong := BCH(1024, 100)
	wmWeak := nand.DefaultWearModel(nand.TLC)
	wmWeak.ECCCorrectableRBER = weak.MaxRBER(16384, 1e-9)
	wmStrong := nand.DefaultWearModel(nand.TLC)
	wmStrong.ECCCorrectableRBER = strong.MaxRBER(16384, 1e-9)
	if wmStrong.UsableCycles() <= wmWeak.UsableCycles() {
		t.Fatalf("stronger ECC did not extend life: %d vs %d",
			wmStrong.UsableCycles(), wmWeak.UsableCycles())
	}
}

func TestPageFailBadArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Default().PageFailProb(0, 1e-3)
}

func TestPoissonTailAccuracy(t *testing.T) {
	// Cross-check one point against the exact Poisson tail: λ = 8192×4e-3
	// ≈ 32.8, T = 72: tail should be astronomically small but positive.
	p := Default().UncorrectableProb(4e-3)
	if p <= 0 || p > 1e-6 {
		t.Fatalf("tail at λ≈33, T=72: %v", p)
	}
	if math.IsNaN(p) {
		t.Fatal("NaN tail")
	}
}
