package trace

import (
	"math"
	"testing"

	"repro/internal/optim"
)

func TestGradientsDeterministic(t *testing.T) {
	a := Gradients(7, 100)
	b := Gradients(7, 100)
	for i := range a {
		//simlint:allow floateq same seed must reproduce bit-identically
		if a[i] != b[i] {
			t.Fatal("same seed produced different gradients")
		}
	}
	c := Gradients(8, 100)
	same := true
	for i := range a {
		//simlint:allow floateq same seed must reproduce bit-identically
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical gradients")
	}
}

func TestGradientsRoughlyNormal(t *testing.T) {
	g := Gradients(1, 10000)
	var sum, ss float64
	for _, v := range g {
		sum += float64(v)
		ss += float64(v) * float64(v)
	}
	mean := sum / float64(len(g))
	std := math.Sqrt(ss/float64(len(g)) - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(std-1) > 0.05 {
		t.Fatalf("mean=%v std=%v, want ~N(0,1)", mean, std)
	}
}

func TestQuadraticConvergenceUnderAdam(t *testing.T) {
	q := NewQuadratic(11, 64)
	w := make([]float32, q.Dim())
	g := make([]float32, q.Dim())
	o := optim.New(optim.Adam, optim.Hyper{LR: 0.05})
	start := q.Loss(w)
	for i := 0; i < 2000; i++ {
		q.Grad(w, g)
		o.Step(w, g)
	}
	end := q.Loss(w)
	//simlint:allow unitconv 1000x loss-reduction threshold, not a unit conversion
	if end > start/1000 {
		t.Fatalf("Adam failed to converge on quadratic: %v -> %v", start, end)
	}
	if d := math.Sqrt(2 * q.Loss(w)); d > 0.1 {
		t.Fatalf("distance to target = %v", d)
	}
}

func TestQuadraticEveryOptimizerDescends(t *testing.T) {
	for _, k := range optim.Kinds() {
		q := NewQuadratic(5, 32)
		w := make([]float32, q.Dim())
		g := make([]float32, q.Dim())
		o := optim.New(k, optim.Hyper{LR: 0.01})
		start := q.Loss(w)
		for i := 0; i < 500; i++ {
			q.Grad(w, g)
			o.Step(w, g)
		}
		if end := q.Loss(w); end >= start {
			t.Errorf("%v did not descend: %v -> %v", k, start, end)
		}
	}
}

func TestQuadraticMismatchPanics(t *testing.T) {
	q := NewQuadratic(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	q.Grad(make([]float32, 3), make([]float32, 3))
}

func TestGenerateIOPatterns(t *testing.T) {
	const pages = 1000
	for _, p := range []Pattern{SeqWrite, RandWrite, SeqRead, RandRead, Mixed7030} {
		reqs := GenerateIO(p, 500, pages, 42)
		if len(reqs) != 500 {
			t.Fatalf("%v: %d reqs", p, len(reqs))
		}
		for _, r := range reqs {
			if r.LPA < 0 || r.LPA >= pages {
				t.Fatalf("%v: lpa %d out of range", p, r.LPA)
			}
			if !r.Write && r.LPA >= pages/2 {
				t.Fatalf("%v: read outside written half", p)
			}
		}
	}
}

func TestGenerateIOSeqWrite(t *testing.T) {
	reqs := GenerateIO(SeqWrite, 10, 1000, 1)
	for i, r := range reqs {
		if r.LPA != int64(i) || !r.Write {
			t.Fatalf("seq write req %d = %+v", i, r)
		}
	}
}

func TestGenerateIOMixedRatio(t *testing.T) {
	reqs := GenerateIO(Mixed7030, 10000, 1000, 9)
	writes := 0
	for _, r := range reqs {
		if r.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(reqs))
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction = %v, want ~0.30", frac)
	}
}

func TestGenerateIODeterministic(t *testing.T) {
	a := GenerateIO(RandWrite, 100, 1000, 5)
	b := GenerateIO(RandWrite, 100, 1000, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestGenerateIOBadArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad args accepted")
		}
	}()
	GenerateIO(SeqWrite, 10, 1, 1)
}

func TestPatternString(t *testing.T) {
	if SeqWrite.String() != "seq-write" || Mixed7030.String() != "mixed-70r30w" {
		t.Fatal("pattern names")
	}
	if Pattern(42).String() == "" {
		t.Fatal("unknown pattern should render")
	}
}
