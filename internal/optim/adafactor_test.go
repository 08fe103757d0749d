package optim

import (
	"math"
	"testing"
)

func TestAdafactorSublinearState(t *testing.T) {
	a := NewAdafactor(1024, 4096, Hyper{})
	// (1024+4096)/(1024·4096) ≈ 0.0012 words/param vs Adam's 2.
	if spp := a.StateWordsPerParam(); spp > 0.01 {
		t.Fatalf("state words/param = %v, not sublinear", spp)
	}
}

func TestAdafactorDescendsOnQuadratic(t *testing.T) {
	const rows, cols = 8, 16
	a := NewAdafactor(rows, cols, Hyper{LR: 0.05})
	target := make([]float32, rows*cols)
	for i := range target {
		target[i] = float32(i%7) - 3
	}
	w := make([]float32, rows*cols)
	g := make([]float32, rows*cols)
	loss := func() float64 {
		var s float64
		for i := range w {
			d := float64(w[i] - target[i])
			s += d * d
		}
		return s
	}
	start := loss()
	for step := 0; step < 500; step++ {
		for i := range w {
			g[i] = w[i] - target[i]
		}
		a.Step(w, g)
	}
	if end := loss(); end > start/100 {
		t.Fatalf("did not descend: %v -> %v", start, end)
	}
	if a.Steps() != 500 {
		t.Fatalf("steps = %d", a.Steps())
	}
}

// With a rank-1 squared-gradient matrix, the factored estimate is exact, so
// the first update must be lr·sign(g) (all |u| equal and clipped to 1).
func TestAdafactorRankOneExact(t *testing.T) {
	const rows, cols = 4, 4
	a := NewAdafactor(rows, cols, Hyper{LR: 0.1})
	w := make([]float32, rows*cols)
	g := make([]float32, rows*cols)
	for i := range g {
		g[i] = 2 // constant gradient: G² is rank 1
	}
	a.Step(w, g)
	for i, v := range w {
		// u_ij = g/√v̂ identical everywhere → RMS = |u| → clip scales the
		// update to exactly lr.
		if math.Abs(float64(v)+0.1) > 1e-6 {
			t.Fatalf("w[%d] = %v, want -0.1", i, v)
		}
	}
}

func TestAdafactorZeroGradientNoChange(t *testing.T) {
	a := NewAdafactor(4, 4, Hyper{LR: 0.1})
	w := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	orig := append([]float32(nil), w...)
	a.Step(w, make([]float32, 16))
	for i := range w {
		//simlint:allow floateq masked entries must stay bit-identical
		if w[i] != orig[i] {
			t.Fatal("zero gradient moved weights")
		}
	}
}

func TestAdafactorDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad dims")
		}
	}()
	NewAdafactor(0, 4, Hyper{})
}

func TestAdafactorLenPanics(t *testing.T) {
	a := NewAdafactor(2, 2, Hyper{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on len mismatch")
		}
	}()
	a.Step(make([]float32, 3), make([]float32, 3))
}

func TestAdafactorDeterministic(t *testing.T) {
	run := func() []float32 {
		a := NewAdafactor(3, 5, Hyper{LR: 0.02})
		w := make([]float32, 15)
		g := make([]float32, 15)
		for s := 0; s < 10; s++ {
			for i := range g {
				g[i] = float32((i*7+s)%5) - 2
			}
			a.Step(w, g)
		}
		return w
	}
	x, y := run(), run()
	for i := range x {
		//simlint:allow floateq repeated runs must be bit-identical
		if x[i] != y[i] {
			t.Fatal("nondeterministic")
		}
	}
	//simlint:allow floateq 0 is the untouched sentinel
	if run()[0] == 0 && run()[1] == 0 {
		t.Fatal("degenerate run")
	}
	_ = NewAdafactor(2, 2, Hyper{}).Name()
}
