package optim

import "math"

// lamb implements LAMB (You et al., "Large Batch Optimization for Deep
// Learning"): an AdamW-style update rescaled per layer by the trust ratio
// ‖w‖ / ‖r‖, where r is the raw update direction. Step treats the whole
// slice as one layer; a training framework applies per-layer trust ratios
// (the tests' StepLayers).
//
// The two-pass structure (compute r and norms, then scale and apply) is
// significant for in-storage execution: the ODP kernel needs a second read
// pass or a staging buffer, and a global reduction across dies. The kernel
// spec in kernel.go encodes that.
type lamb struct {
	hp    Hyper
	m, v  []float32
	steps int
}

func (l *lamb) Name() string { return "LAMB" }
func (l *lamb) Kind() Kind   { return LAMB }
func (l *lamb) Steps() int   { return l.steps }

func (l *lamb) Step(w, g []float32) {
	checkLens(w, g)
	l.ensureState(len(w))
	l.steps++
	l.updateLayer(w, g, 0, len(w))
}

func (l *lamb) ensureState(n int) {
	if l.m == nil {
		l.m = make([]float32, n)
		l.v = make([]float32, n)
	}
}

func (l *lamb) updateLayer(w, g []float32, lo, hi int) {
	t := float64(l.steps)
	b1, b2 := l.hp.Beta1, l.hp.Beta2
	eps := l.hp.Eps
	wd := l.hp.WeightDecay
	bc1 := 1 - math.Pow(b1, t)
	bc2 := 1 - math.Pow(b2, t)

	// Pass 1: moment update and raw direction r, accumulating norms.
	r := make([]float64, hi-lo)
	var wNorm, rNorm float64
	for i := lo; i < hi; i++ {
		grad := float64(g[i])
		m := b1*float64(l.m[i]) + (1-b1)*grad
		v := b2*float64(l.v[i]) + (1-b2)*grad*grad
		l.m[i], l.v[i] = float32(m), float32(v)
		ri := m / bc1 / (math.Sqrt(v/bc2) + eps)
		ri += wd * float64(w[i]) // decoupled decay inside the direction, per paper
		r[i-lo] = ri
		wNorm += float64(w[i]) * float64(w[i])
		rNorm += ri * ri
	}
	wNorm = math.Sqrt(wNorm)
	rNorm = math.Sqrt(rNorm)

	// Trust ratio: 1 when either norm vanishes (fresh layer or zero update).
	trust := 1.0
	if wNorm > 0 && rNorm > 0 {
		trust = wNorm / rNorm
	}

	// Pass 2: apply.
	lr := l.hp.LR
	for i := lo; i < hi; i++ {
		w[i] = float32(float64(w[i]) - lr*trust*r[i-lo])
	}
}
