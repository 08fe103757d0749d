package optim

import (
	"fmt"
	"math"
)

// Adafactor implements the sub-linear-memory optimizer of Shazeer & Stern
// ("Adafactor: Adaptive Learning Rates with Sublinear Memory Cost"): the
// second-moment matrix V of an (rows × cols) parameter is stored as a
// rank-1 factorisation — a row-sum vector R and column-sum vector C — so
// optimizer state is (rows+cols) words instead of rows·cols.
//
// Adafactor is deliberately *not* part of the Kind enum: its state does not
// tile into whole per-parameter pages, so the in-storage timing model (one
// state page per word per unit) does not apply. It exists here as the gold
// algorithm and as the counterpoint in the state-footprint analysis: with
// ~0 words/param resident, offloading pressure — and hence OptimStore's
// advantage — largely disappears.
type Adafactor struct {
	rows, cols int
	hp         Hyper
	r, c       []float64 // factored second-moment accumulators
	steps      int

	// ClipThreshold is the update-RMS clipping constant d (paper: 1.0).
	ClipThreshold float64
	// Eps1 regularises the squared-gradient accumulators (paper: 1e-30).
	Eps1 float64
}

// NewAdafactor builds an optimizer for one rows×cols parameter matrix.
// Unset hyperparameters take the package defaults; only LR is used.
func NewAdafactor(rows, cols int, hp Hyper) *Adafactor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("optim: Adafactor %dx%d", rows, cols))
	}
	return &Adafactor{
		rows: rows, cols: cols,
		hp:            hp.withDefaults(),
		r:             make([]float64, rows),
		c:             make([]float64, cols),
		ClipThreshold: 1.0,
		Eps1:          1e-30,
	}
}

// Name returns the algorithm name.
func (a *Adafactor) Name() string { return "Adafactor" }

// Steps returns how many updates have been applied.
func (a *Adafactor) Steps() int { return a.steps }

// StateWordsPerParam returns the fractional resident state per parameter:
// (rows+cols)/(rows·cols) — the sub-linear memory claim.
func (a *Adafactor) StateWordsPerParam() float64 {
	return float64(a.rows+a.cols) / float64(a.rows*a.cols)
}

// Step applies one update. w and g are row-major rows×cols matrices.
func (a *Adafactor) Step(w, g []float32) {
	if len(w) != a.rows*a.cols || len(g) != len(w) {
		panic(fmt.Sprintf("optim: Adafactor.Step len(w)=%d len(g)=%d want %d",
			len(w), len(g), a.rows*a.cols))
	}
	a.steps++
	t := float64(a.steps)
	// Decay schedule β̂₂ₜ = 1 − t^(−0.8) (paper §7).
	beta2t := 1 - math.Pow(t, -0.8)

	// Row and column sums of G² + ε₁.
	rowSum := make([]float64, a.rows)
	colSum := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			g2 := float64(g[i*a.cols+j])
			g2 = g2*g2 + a.Eps1
			rowSum[i] += g2
			colSum[j] += g2
		}
	}
	var total float64
	for i := range a.r {
		a.r[i] = beta2t*a.r[i] + (1-beta2t)*rowSum[i]
		total += a.r[i]
	}
	for j := range a.c {
		a.c[j] = beta2t*a.c[j] + (1-beta2t)*colSum[j]
	}

	// Factored second-moment estimate V̂ᵢⱼ = Rᵢ·Cⱼ / ΣR, then the update
	// U = G/√V̂, RMS-clipped.
	u := make([]float64, len(g))
	var rms float64
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			v := a.r[i] * a.c[j] / total
			ui := float64(g[i*a.cols+j]) / math.Sqrt(v)
			u[i*a.cols+j] = ui
			rms += ui * ui
		}
	}
	rms = math.Sqrt(rms / float64(len(u)))
	scale := a.hp.LR
	if rms > a.ClipThreshold {
		scale /= rms / a.ClipThreshold
	}
	for k := range w {
		w[k] = float32(float64(w[k]) - scale*u[k])
	}
}
