package optim

import "math"

// adamA implements Adam Accumulation (Zhang et al., "Adam Accumulation to
// Reduce Memory Footprints of both Activations and Gradients for
// Large-scale DNN Training"). Instead of buffering micro-batch gradients
// and applying Adam once per accumulated batch, each gradient is folded
// directly into the first moment, and the second moment tracks the
// (already-smoothed) first moment:
//
//	m ← β₁·m + (1−β₁)·g
//	v ← β₂·v + (1−β₂)·m²
//	m̂ = m / (1−β₁ᵗ),  v̂ = v / (1−β₂ᵗ)
//	w ← w − lr·m̂ / (√v̂ + ε)
//
// Eliminating the gradient buffer is what lets a training system stream N
// micro-batch gradients per step into resident state; the traffic side of
// that is modeled by StateSpec.WithAccum / Kernel.WithAccum. The state
// footprint stays at Adam's two words per parameter.
type adamA struct {
	hp    Hyper
	m, v  []float32
	steps int
}

func (a *adamA) Name() string { return "AdamA" }
func (a *adamA) Kind() Kind   { return AdamA }
func (a *adamA) Steps() int   { return a.steps }

func (a *adamA) Step(w, g []float32) {
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
		grad := float64(g[i]) + wd*float64(w[i])
		m := b1*float64(a.m[i]) + (1-b1)*grad
		v := b2*float64(a.v[i]) + (1-b2)*m*m
		a.m[i], a.v[i] = float32(m), float32(v)
		mhat := m / bc1
		vhat := v / bc2
		upd := lr * mhat / (math.Sqrt(vhat) + eps)
		w[i] = float32(float64(w[i]) - upd)
	}
}
