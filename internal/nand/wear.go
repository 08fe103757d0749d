package nand

import "math"

// WearModel converts program/erase cycle counts into raw bit error rates
// and lifetime estimates. The shape — RBER flat early, super-linear toward
// end of life — follows the standard empirical model
// RBER(n) = a + b·(n/limit)^k used across the flash-reliability literature.
type WearModel struct {
	// BaseRBER is the raw bit error rate of a fresh block.
	BaseRBER float64
	// EOLRBER is the raw bit error rate at the rated P/E limit.
	EOLRBER float64
	// Exponent controls how sharply errors rise near end of life.
	Exponent float64
	// PECycles is the rated cycle limit (from Params).
	PECycles int
	// ECCCorrectableRBER is the highest RBER the controller's ECC can
	// correct; beyond this, reads become uncorrectable.
	ECCCorrectableRBER float64
}

// DefaultWearModel returns literature-ballpark constants for the cell type.
func DefaultWearModel(c CellType) WearModel {
	m := WearModel{Exponent: 3, ECCCorrectableRBER: 5e-3}
	switch c {
	case SLC:
		m.BaseRBER, m.EOLRBER, m.PECycles = 1e-9, 1e-5, 100_000
	case MLC:
		m.BaseRBER, m.EOLRBER, m.PECycles = 1e-7, 1e-3, 10_000
	case TLC:
		m.BaseRBER, m.EOLRBER, m.PECycles = 1e-6, 3e-3, 3_000
	case QLC:
		m.BaseRBER, m.EOLRBER, m.PECycles = 1e-5, 8e-3, 1_000
	}
	return m
}

// RBER returns the raw bit error rate after n P/E cycles.
func (m WearModel) RBER(n int) float64 {
	if n < 0 {
		n = 0
	}
	frac := float64(n) / float64(m.PECycles)
	return m.BaseRBER + (m.EOLRBER-m.BaseRBER)*math.Pow(frac, m.Exponent)
}

// Correctable reports whether a block at n P/E cycles is still readable
// through ECC.
func (m WearModel) Correctable(n int) bool {
	return m.RBER(n) <= m.ECCCorrectableRBER
}

// UsableCycles returns the number of P/E cycles before RBER exceeds the
// ECC capability. This can exceed the rated PECycles when the ECC is
// strong, but is capped at 4× rated to stay honest about retention and
// disturb effects the RBER curve does not capture.
//
// It inverts the RBER curve in closed form, PECycles·((ECC−Base)/(EOL−
// Base))^(1/Exponent), then steps by whole cycles until n is the largest
// correctable count in [0, 4·PECycles] (0 when none is), so rounding in
// the inversion never moves the answer.
func (m WearModel) UsableCycles() int {
	limit := 4 * m.PECycles
	x := float64(m.PECycles) * math.Pow((m.ECCCorrectableRBER-m.BaseRBER)/(m.EOLRBER-m.BaseRBER), 1/m.Exponent)
	n := 0
	if x >= float64(limit) {
		n = limit
	} else if x > 0 {
		n = int(x)
	}
	for n < limit && m.Correctable(n+1) {
		n++
	}
	for n > 0 && !m.Correctable(n) {
		n--
	}
	return n
}

// LifetimeSteps converts a per-step erase demand into a device lifetime.
// blocks is the number of blocks in the wear-levelled pool, erasesPerStep
// the average block erases one training step causes. Perfect wear
// levelling is assumed; real-world skew is explored via the wear-stats
// reports.
func (m WearModel) LifetimeSteps(blocks int, erasesPerStep float64) float64 {
	if erasesPerStep <= 0 {
		return math.Inf(1)
	}
	totalErases := float64(blocks) * float64(m.UsableCycles())
	return totalErases / erasesPerStep
}
