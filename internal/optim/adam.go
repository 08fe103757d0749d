package optim

import "math"

// adam implements Adam (Kingma & Ba) and, with decoupledWD, AdamW
// (Loshchilov & Hutter):
//
//	m ← β₁·m + (1−β₁)·g
//	v ← β₂·v + (1−β₂)·g²
//	m̂ = m / (1−β₁ᵗ),  v̂ = v / (1−β₂ᵗ)
//	w ← w − lr·m̂ / (√v̂ + ε)            (− lr·λ·w decoupled, for AdamW)
//
// Adam (non-W) folds weight decay into the gradient (L2 style).
type adam struct {
	hp          Hyper
	decoupledWD bool
	m, v        []float32
	steps       int
}

func (a *adam) Name() string {
	if a.decoupledWD {
		return "AdamW"
	}
	return "Adam"
}

func (a *adam) Kind() Kind {
	if a.decoupledWD {
		return AdamW
	}
	return Adam
}

func (a *adam) Steps() int { return a.steps }

func (a *adam) Step(w, g []float32) {
	checkLens(w, g)
	if a.m == nil {
		a.m = make([]float32, len(w))
		a.v = make([]float32, len(w))
	}
	a.steps++
	t := float64(a.steps)
	lr := a.hp.LR
	b1, b2 := a.hp.Beta1, a.hp.Beta2
	eps := a.hp.Eps
	wd := a.hp.WeightDecay
	bc1 := 1 - math.Pow(b1, t)
	bc2 := 1 - math.Pow(b2, t)
	for i := range w {
		grad := float64(g[i])
		if !a.decoupledWD {
			grad += wd * float64(w[i])
		}
		m := b1*float64(a.m[i]) + (1-b1)*grad
		v := b2*float64(a.v[i]) + (1-b2)*grad*grad
		a.m[i], a.v[i] = float32(m), float32(v)
		mhat := m / bc1
		vhat := v / bc2
		upd := lr * mhat / (math.Sqrt(vhat) + eps)
		if a.decoupledWD {
			upd += lr * wd * float64(w[i])
		}
		w[i] = float32(float64(w[i]) - upd)
	}
}

// amsgrad implements AMSGrad (Reddi, Kale & Kumar, "On the Convergence of
// Adam and Beyond"): Adam with a maintained elementwise maximum of the
// second moment, which makes the effective learning rate non-increasing:
//
//	m ← β₁·m + (1−β₁)·g
//	v ← β₂·v + (1−β₂)·g²
//	v̂max ← max(v̂max, v/(1−β₂ᵗ))
//	w ← w − lr·m̂ / (√v̂max + ε)
//
// The extra state word per parameter makes it the heaviest resident
// footprint in the zoo — a useful upper data point for the traffic study.
type amsgrad struct {
	hp         Hyper
	m, v, vmax []float32
	steps      int
}

func (a *amsgrad) Name() string { return "AMSGrad" }
func (a *amsgrad) Kind() Kind   { return AMSGrad }
func (a *amsgrad) Steps() int   { return a.steps }

func (a *amsgrad) Step(w, g []float32) {
	checkLens(w, g)
	if a.m == nil {
		a.m = make([]float32, len(w))
		a.v = make([]float32, len(w))
		a.vmax = make([]float32, len(w))
	}
	a.steps++
	t := float64(a.steps)
	lr := a.hp.LR
	b1, b2 := a.hp.Beta1, a.hp.Beta2
	eps := a.hp.Eps
	bc1 := 1 - math.Pow(b1, t)
	bc2 := 1 - math.Pow(b2, t)
	for i := range w {
		grad := float64(g[i]) + a.hp.WeightDecay*float64(w[i])
		m := b1*float64(a.m[i]) + (1-b1)*grad
		v := b2*float64(a.v[i]) + (1-b2)*grad*grad
		a.m[i], a.v[i] = float32(m), float32(v)
		vhat := v / bc2
		if vhat > float64(a.vmax[i]) {
			a.vmax[i] = float32(vhat)
		}
		upd := lr * (m / bc1) / (math.Sqrt(float64(a.vmax[i])) + eps)
		w[i] = float32(float64(w[i]) - upd)
	}
}
