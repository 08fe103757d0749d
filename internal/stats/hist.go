// Package stats provides the small statistics and report-rendering toolkit
// used by the simulator: reservoir-free exact histograms, labelled data
// series for figure regeneration, and aligned text/markdown/CSV tables.
package stats

import (
	"math"
	"sort"
)

// Hist collects float64 samples and answers summary queries exactly
// (it keeps all samples; simulation sample counts are modest).
type Hist struct {
	samples []float64
	sorted  bool
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// Add records one sample. NaN samples are dropped: a NaN would leave
// Percentile at the mercy of where the sort happens to park an unordered
// value, so one bad measurement must not corrupt the histogram.
func (h *Hist) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

func (h *Hist) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile, or 0 with no samples. It
// linearly interpolates between the two closest ranks (the "exclusive"
// variant at rank p/100·(n-1), matching numpy's default quantile method)
// — it is NOT the nearest-rank method: p50 of {1, 2} is 1.5, not 1 or 2.
//
// Out-of-range p clamps: p <= 0 returns the minimum and p >= 100 the
// maximum, exactly (no interpolation at the boundaries). A NaN p has no
// ordering against any rank, so it propagates: Percentile(NaN) is NaN,
// never a silently-picked sample.
func (h *Hist) Percentile(p float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	h.ensureSorted()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}
