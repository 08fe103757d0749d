package optim

import (
	"math"
	"testing"

	"repro/internal/approx"
)

func TestClipGlobalNorm(t *testing.T) {
	g := []float32{3, 4} // norm 5
	norm := ClipGlobalNorm(g, 1)
	if !approx.Equal(norm, 5) {
		t.Fatalf("returned norm = %v", norm)
	}
	if got := GlobalNorm(g); math.Abs(got-1) > 1e-6 {
		t.Fatalf("post-clip norm = %v", got)
	}
	// Direction preserved.
	if math.Abs(float64(g[0])/float64(g[1])-0.75) > 1e-6 {
		t.Fatal("direction changed")
	}
	// Under the limit: untouched.
	h := []float32{0.1, 0.1}
	ClipGlobalNorm(h, 10)
	//simlint:allow floateq under-limit gradients must stay bit-identical
	if h[0] != 0.1 {
		t.Fatal("under-limit gradient modified")
	}
	// Zero gradient: untouched, no NaN.
	z := []float32{0, 0}
	if n := ClipGlobalNorm(z, 1); !approx.Equal(n, 0) || !approx.Equal(float64(z[0]), 0) {
		t.Fatal("zero gradient mishandled")
	}
}

func TestClipBadNormPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ClipGlobalNorm([]float32{1}, 0)
}

func TestWarmupCosineShape(t *testing.T) {
	s, err := NewWarmupCosine(100, 1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Warmup: rising from ~0 to 1.
	if s.LRAt(0) >= s.LRAt(50) || s.LRAt(50) >= s.LRAt(99) {
		t.Fatal("warmup not rising")
	}
	if got := s.LRAt(99); math.Abs(got-1) > 1e-9 {
		t.Fatalf("end of warmup = %v", got)
	}
	// Decay: monotone down to MinFactor.
	prev := 1.0
	for step := 100; step < 1000; step += 50 {
		v := s.LRAt(step)
		if v > prev+1e-12 {
			t.Fatalf("cosine not decaying at %d", step)
		}
		prev = v
	}
	if got := s.LRAt(5000); !approx.Equal(got, 0.1) {
		t.Fatalf("after total = %v, want MinFactor", got)
	}
}

func TestWarmupCosineRejects(t *testing.T) {
	for _, c := range [][3]int{{-1, 10, 0}, {10, 10, 0}, {10, 5, 0}} {
		if _, err := NewWarmupCosine(c[0], c[1], 0); err == nil {
			t.Errorf("accepted %v", c)
		}
	}
	if _, err := NewWarmupCosine(1, 10, 1.5); err == nil {
		t.Fatal("accepted factor > 1")
	}
}

func TestScheduledMatchesManualScaling(t *testing.T) {
	// For SGD, scheduled step with factor f must equal lr·f·g exactly.
	sched, _ := NewWarmupCosine(10, 100, 0)
	s := NewScheduled(New(SGD, Hyper{LR: 0.1}), sched)
	w := []float32{1}
	s.Step(w, []float32{1})
	want := 1 - 0.1*float32(sched.LRAt(0))
	if math.Abs(float64(w[0]-want)) > 1e-7 {
		t.Fatalf("w = %v, want %v", w[0], want)
	}
}

func TestScheduledFullFactorPassThrough(t *testing.T) {
	full, _ := NewWarmupCosine(0, 10, 1) // a factor of exactly 1 at every step
	s := NewScheduled(New(Adam, Hyper{LR: 0.01}), full)
	w := []float32{1, 2}
	ref := []float32{1, 2}
	refOpt := New(Adam, Hyper{LR: 0.01})
	g := []float32{0.5, -0.5}
	for i := 0; i < 5; i++ {
		s.Step(w, g)
		refOpt.Step(ref, g)
	}
	for i := range w {
		//simlint:allow floateq both paths must produce bit-identical weights
		if w[i] != ref[i] {
			t.Fatal("a full-factor schedule should be a pass-through")
		}
	}
}

func TestScheduledAdamStateAdvancesUnscaled(t *testing.T) {
	// With a tiny factor, weights barely move, but the inner optimizer's
	// step count (and moments) must still advance — framework semantics.
	sched, _ := NewWarmupCosine(1000, 2000, 0)
	s := NewScheduled(New(Adam, Hyper{LR: 0.01}), sched)
	w := []float32{1}
	for i := 0; i < 3; i++ {
		s.Step(w, []float32{1})
	}
	if s.Inner.Steps() != 3 {
		t.Fatalf("inner steps = %d", s.Inner.Steps())
	}
	//simlint:allow floateq 1 is the untouched initial-weight sentinel
	if w[0] == 1 {
		t.Fatal("weights did not move at all")
	}
	if math.Abs(float64(w[0]-1)) > 0.01*3 {
		t.Fatal("moved more than the unscheduled bound")
	}
}
