package optim

// sgd is plain stochastic gradient descent with optional coupled weight
// decay (L2 regularisation folded into the gradient).
type sgd struct {
	hp    Hyper
	steps int
}

func (s *sgd) Name() string { return "SGD" }
func (s *sgd) Kind() Kind   { return SGD }
func (s *sgd) Steps() int   { return s.steps }

func (s *sgd) Step(w, g []float32) {
	checkLens(w, g)
	lr := float32(s.hp.LR)
	wd := float32(s.hp.WeightDecay)
	for i := range w {
		grad := g[i] + wd*w[i]
		w[i] -= lr * grad
	}
	s.steps++
}

// momentum implements heavy-ball momentum, and Nesterov's accelerated
// variant when nesterov is set:
//
//	v ← µ·v + g
//	w ← w − lr·v            (heavy-ball)
//	w ← w − lr·(g + µ·v)    (Nesterov)
type momentum struct {
	hp       Hyper
	nesterov bool
	v        []float32
	steps    int
}

func (m *momentum) Name() string {
	if m.nesterov {
		return "Nesterov"
	}
	return "Momentum"
}

func (m *momentum) Kind() Kind {
	if m.nesterov {
		return Nesterov
	}
	return Momentum
}

func (m *momentum) Steps() int { return m.steps }

func (m *momentum) Step(w, g []float32) {
	checkLens(w, g)
	if m.v == nil {
		m.v = make([]float32, len(w))
	}
	lr := float32(m.hp.LR)
	mu := float32(m.hp.MomentumMu)
	wd := float32(m.hp.WeightDecay)
	for i := range w {
		grad := g[i] + wd*w[i]
		m.v[i] = mu*m.v[i] + grad
		if m.nesterov {
			w[i] -= lr * (grad + mu*m.v[i])
		} else {
			w[i] -= lr * m.v[i]
		}
	}
	m.steps++
}
