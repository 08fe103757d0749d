package ecc

import (
	"fmt"
	"math"
)

// The BCH codeword model below turns the raw bit error rates of
// nand.WearModel into page failure probabilities. Only tests use it: it
// derives the wear model's ECC correctability ceiling
// (TestECCGroundsWearModel) and FuzzSchemeProperties checks its contract.

// Scheme describes one ECC configuration.
type Scheme struct {
	// CodewordBytes is the data payload per codeword (pages hold several).
	CodewordBytes int
	// T is the number of correctable bit errors per codeword.
	T int
	// ParityOverhead is the parity fraction (extra NAND bytes per data
	// byte); BCH parity ≈ T·ceil(log2(n)) bits.
	ParityOverhead float64
}

// BCH returns a BCH-style scheme over the given codeword size and
// correction capability, with the parity overhead implied by the code.
func BCH(codewordBytes, t int) Scheme {
	if codewordBytes <= 0 || t <= 0 {
		panic(fmt.Sprintf("ecc: BCH(%d, %d)", codewordBytes, t))
	}
	bits := float64(codewordBytes * 8)
	m := math.Ceil(math.Log2(bits))
	return Scheme{
		CodewordBytes:  codewordBytes,
		T:              t,
		ParityOverhead: float64(t) * m / bits,
	}
}

// Default returns the mainstream TLC-era configuration: 1 KiB codewords
// correcting 72 bits (~7e-3 RBER ceiling), ~10% parity.
func Default() Scheme { return BCH(1024, 72) }

// Validate reports the first structural problem.
func (s Scheme) Validate() error {
	if s.CodewordBytes <= 0 || s.T <= 0 || s.ParityOverhead < 0 {
		return fmt.Errorf("ecc: scheme %+v", s)
	}
	return nil
}

// bits per codeword.
func (s Scheme) bits() float64 { return float64(s.CodewordBytes * 8) }

// UncorrectableProb returns the probability one codeword has more than T
// bit errors at the given raw bit error rate, using the Poisson
// approximation to the binomial (n is thousands of bits, p tiny).
func (s Scheme) UncorrectableProb(rber float64) float64 {
	if rber <= 0 {
		return 0
	}
	if rber >= 1 {
		return 1
	}
	lambda := rber * s.bits()
	// P[X <= T] for X ~ Poisson(λ), summed in a numerically stable way:
	// term_k = e^{-λ} λ^k / k! built iteratively in log space.
	logTerm := -lambda // k = 0
	cdf := math.Exp(logTerm)
	for k := 1; k <= s.T; k++ {
		logTerm += math.Log(lambda) - math.Log(float64(k))
		cdf += math.Exp(logTerm)
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

// PageFailProb returns the probability a page read is uncorrectable: any
// of its codewords failing.
func (s Scheme) PageFailProb(pageBytes int, rber float64) float64 {
	if pageBytes <= 0 {
		panic(fmt.Sprintf("ecc: page bytes %d", pageBytes))
	}
	n := float64((pageBytes + s.CodewordBytes - 1) / s.CodewordBytes)
	p := s.UncorrectableProb(rber)
	return 1 - math.Pow(1-p, n)
}

// MaxRBER returns the highest raw bit error rate at which a page of the
// given size still fails with probability at most target — the value
// nand.WearModel should use as its ECC correctability limit.
func (s Scheme) MaxRBER(pageBytes int, target float64) float64 {
	lo, hi := 0.0, 0.5
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if s.PageFailProb(pageBytes, mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
