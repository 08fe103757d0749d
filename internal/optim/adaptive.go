package optim

import "math"

// adagrad accumulates squared gradients and scales each coordinate's
// learning rate by the inverse root of its accumulated magnitude:
//
//	h ← h + g²
//	w ← w − lr·g / (√h + ε)
type adagrad struct {
	hp    Hyper
	h     []float32
	steps int
}

func (a *adagrad) Name() string { return "Adagrad" }
func (a *adagrad) Kind() Kind   { return Adagrad }
func (a *adagrad) Steps() int   { return a.steps }

func (a *adagrad) Step(w, g []float32) {
	checkLens(w, g)
	if a.h == nil {
		a.h = make([]float32, len(w))
	}
	lr := float32(a.hp.LR)
	eps := float32(a.hp.Eps)
	wd := float32(a.hp.WeightDecay)
	for i := range w {
		grad := g[i] + wd*w[i]
		a.h[i] += grad * grad
		w[i] -= lr * grad / (float32(math.Sqrt(float64(a.h[i]))) + eps)
	}
	a.steps++
}

// rmsprop keeps an exponential moving average of squared gradients:
//
//	h ← ρ·h + (1−ρ)·g²
//	w ← w − lr·g / (√h + ε)
type rmsprop struct {
	hp    Hyper
	h     []float32
	steps int
}

func (r *rmsprop) Name() string { return "RMSProp" }
func (r *rmsprop) Kind() Kind   { return RMSProp }
func (r *rmsprop) Steps() int   { return r.steps }

func (r *rmsprop) Step(w, g []float32) {
	checkLens(w, g)
	if r.h == nil {
		r.h = make([]float32, len(w))
	}
	lr := float32(r.hp.LR)
	rho := float32(r.hp.Rho)
	eps := float32(r.hp.Eps)
	wd := float32(r.hp.WeightDecay)
	for i := range w {
		grad := g[i] + wd*w[i]
		r.h[i] = rho*r.h[i] + (1-rho)*grad*grad
		w[i] -= lr * grad / (float32(math.Sqrt(float64(r.h[i]))) + eps)
	}
	r.steps++
}
