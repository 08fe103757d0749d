package ecc

import (
	"math"
	"testing"
)

// FuzzSchemeProperties checks the probability model's analytic contract on
// arbitrary BCH configurations: probabilities stay in [0,1], uncorrectable
// probability is monotone in RBER, a page can never be more reliable than
// one of its codewords, and the MaxRBER bisection lands exactly on the
// boundary of the target it claims to satisfy.
func FuzzSchemeProperties(f *testing.F) {
	f.Add(1024, 72, 0.001, 0.007)
	f.Add(512, 8, 1e-6, 1e-4)
	f.Add(4096, 120, 0.0, 0.5)
	f.Add(64, 1, 1e-9, 1e-8)
	f.Fuzz(func(t *testing.T, codewordBytes, tcap int, rber1, rber2 float64) {
		// Plausible codes spend a small fraction of the codeword on parity;
		// T beyond codewordBytes/8 means more parity than data.
		if codewordBytes < 64 || codewordBytes > 8192 || tcap < 1 || tcap > 256 || tcap > codewordBytes/8 {
			t.Skip("outside the physically plausible BCH envelope")
		}
		if math.IsNaN(rber1) || math.IsNaN(rber2) || rber1 < 0 || rber2 < 0 || rber1 > 1 || rber2 > 1 {
			t.Skip("RBER is a probability")
		}
		s := BCH(codewordBytes, tcap)
		if err := s.Validate(); err != nil {
			t.Fatalf("BCH(%d, %d) invalid: %v", codewordBytes, tcap, err)
		}
		if s.ParityOverhead <= 0 || s.ParityOverhead >= 1 {
			t.Fatalf("BCH(%d, %d) parity overhead %v outside (0,1)", codewordBytes, tcap, s.ParityOverhead)
		}

		lo, hi := rber1, rber2
		if lo > hi {
			lo, hi = hi, lo
		}
		pLo, pHi := s.UncorrectableProb(lo), s.UncorrectableProb(hi)
		for _, p := range []float64{pLo, pHi} {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("UncorrectableProb outside [0,1]: %v", p)
			}
		}
		// Monotone in RBER, modulo float noise in the Poisson CDF sum.
		if pLo > pHi+1e-12 {
			t.Fatalf("UncorrectableProb not monotone: P(%v)=%v > P(%v)=%v", lo, pLo, hi, pHi)
		}

		const pageBytes = 16 * 1024
		if pf := s.PageFailProb(pageBytes, hi); pf < pHi-1e-12 || pf > 1 {
			t.Fatalf("PageFailProb %v below codeword failure %v (page has >= 1 codeword)", pf, pHi)
		}

		// The bisection must return the largest RBER still meeting the
		// target: at the returned rate the page meets it, and doubling the
		// rate must clearly miss it. (A finer overshoot probe is not robust:
		// near huge correction capabilities the failure curve is so flat
		// that float noise in the Poisson CDF swamps small RBER steps.)
		const target = 1e-9
		max := s.MaxRBER(pageBytes, target)
		if max < 0 || max > 0.5 {
			t.Fatalf("MaxRBER %v outside search range [0, 0.5]", max)
		}
		if pf := s.PageFailProb(pageBytes, max); pf > target {
			t.Fatalf("PageFailProb at MaxRBER %v is %v, exceeds target %v", max, pf, target)
		}
		if past := 2 * max; past < 0.5 {
			if pf := s.PageFailProb(pageBytes, past); pf <= target {
				t.Fatalf("MaxRBER %v undershoots: PageFailProb(%v) = %v still under target %v",
					max, past, pf, target)
			}
		}
	})
}
