package optim

import (
	"math"
	"testing"

	"repro/internal/approx"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSGDClosedForm(t *testing.T) {
	o := New(SGD, Hyper{LR: 0.1})
	w := []float32{1, -2}
	g := []float32{0.5, 0.5}
	for k := 1; k <= 5; k++ {
		o.Step(w, g)
		want0 := 1 - float64(k)*0.1*0.5
		if !almostEq(float64(w[0]), want0, 1e-6) {
			t.Fatalf("step %d: w[0]=%v want %v", k, w[0], want0)
		}
	}
	if o.Steps() != 5 {
		t.Fatalf("steps = %d", o.Steps())
	}
}

func TestSGDWeightDecay(t *testing.T) {
	o := New(SGD, Hyper{LR: 0.1, WeightDecay: 0.5})
	w := []float32{2}
	o.Step(w, []float32{0})
	// w ← w − lr·(g + wd·w) = 2 − 0.1·(0.5·2) = 1.9
	if !almostEq(float64(w[0]), 1.9, 1e-6) {
		t.Fatalf("w=%v want 1.9", w[0])
	}
}

func TestMomentumClosedForm(t *testing.T) {
	mu, lr := 0.9, 0.1
	o := New(Momentum, Hyper{LR: lr, MomentumMu: mu})
	w := []float32{0}
	g := []float32{1}
	o.Step(w, g) // v=1, w=-lr
	o.Step(w, g) // v=1.9, w=-lr(1+1.9)
	want := -lr * (1 + (1 + mu))
	if !almostEq(float64(w[0]), want, 1e-6) {
		t.Fatalf("w=%v want %v", w[0], want)
	}
}

func TestNesterovFirstStep(t *testing.T) {
	mu, lr := 0.9, 0.1
	o := New(Nesterov, Hyper{LR: lr, MomentumMu: mu})
	w := []float32{0}
	o.Step(w, []float32{1})
	// v=1; w ← −lr·(g + µ·v) = −lr·(1+µ)
	want := -lr * (1 + mu)
	if !almostEq(float64(w[0]), want, 1e-6) {
		t.Fatalf("w=%v want %v", w[0], want)
	}
}

func TestAdagradClosedForm(t *testing.T) {
	lr, eps := 0.1, 1e-8
	o := New(Adagrad, Hyper{LR: lr, Eps: eps})
	w := []float32{0}
	g := []float32{1}
	var want float64
	for k := 1; k <= 4; k++ {
		o.Step(w, g)
		want -= lr / (math.Sqrt(float64(k)) + eps)
		if !almostEq(float64(w[0]), want, 1e-5) {
			t.Fatalf("step %d: w=%v want %v", k, w[0], want)
		}
	}
}

func TestRMSPropFirstStep(t *testing.T) {
	lr, rho, eps := 0.01, 0.99, 1e-8
	o := New(RMSProp, Hyper{LR: lr, Rho: rho, Eps: eps})
	w := []float32{0}
	o.Step(w, []float32{2})
	// h = (1−ρ)·4; upd = lr·2/(√h + ε)
	want := -lr * 2 / (math.Sqrt((1-rho)*4) + eps)
	if !almostEq(float64(w[0]), want, 1e-5) {
		t.Fatalf("w=%v want %v", w[0], want)
	}
}

// With a constant gradient, Adam's bias-corrected moments are exactly
// m̂=g and v̂=g², so every step moves w by lr·g/(|g|+ε) ≈ lr·sign(g).
func TestAdamConstantGradient(t *testing.T) {
	lr := 0.001
	o := New(Adam, Hyper{LR: lr})
	w := []float32{1}
	g := []float32{-3}
	for k := 1; k <= 10; k++ {
		o.Step(w, g)
		want := 1 + float64(k)*lr // moving against negative gradient
		if !almostEq(float64(w[0]), want, 1e-4) {
			t.Fatalf("step %d: w=%v want %v", k, w[0], want)
		}
	}
}

func TestAdamWDecoupledDecay(t *testing.T) {
	lr, wd := 0.1, 0.5
	o := New(AdamW, Hyper{LR: lr, WeightDecay: wd})
	w := []float32{2}
	o.Step(w, []float32{0})
	// Zero gradient: moments stay zero, update is pure decay lr·wd·w.
	want := 2 * (1 - lr*wd)
	if !almostEq(float64(w[0]), want, 1e-6) {
		t.Fatalf("w=%v want %v", w[0], want)
	}
}

func TestAdamCoupledVsDecoupledDiffer(t *testing.T) {
	hp := Hyper{LR: 0.1, WeightDecay: 0.1}
	wa := []float32{1}
	ww := []float32{1}
	g := []float32{0.5}
	New(Adam, hp).Step(wa, g)
	New(AdamW, hp).Step(ww, g)
	if approx.Equal(float64(wa[0]), float64(ww[0])) {
		t.Fatal("Adam and AdamW should differ with weight decay")
	}
}

func TestZeroGradientNoChange(t *testing.T) {
	for _, k := range Kinds() {
		o := New(k, Hyper{LR: 0.1})
		w := []float32{1.5, -2.5}
		orig := append([]float32(nil), w...)
		for i := 0; i < 3; i++ {
			o.Step(w, []float32{0, 0})
		}
		for i := range w {
			//simlint:allow floateq masked entries must stay bit-identical
			if w[i] != orig[i] {
				t.Errorf("%v: w changed with zero gradient: %v -> %v", k, orig, w)
				break
			}
		}
	}
}

func TestLAMBTrustRatio(t *testing.T) {
	lr := 0.01
	o := New(LAMB, Hyper{LR: lr}).(*lamb)
	w := []float32{4}
	o.Step(w, []float32{1})
	// One element: |Δw| = lr·(‖w‖/‖r‖)·|r| = lr·‖w‖ = lr·4.
	if !almostEq(float64(4-w[0]), lr*4, 1e-4) {
		t.Fatalf("Δw=%v want %v", 4-w[0], lr*4)
	}
}

func TestLAMBStepLayers(t *testing.T) {
	o := New(LAMB, Hyper{LR: 0.01}).(*lamb)
	w := []float32{4, 4, 0.5, 0.5}
	g := []float32{1, 1, 1, 1}
	o.StepLayers(w, g, []int{0, 2, 4})
	// Layer norms differ (‖w‖=4√2 vs 0.5√2) so per-layer deltas differ.
	d1 := 4 - float64(w[0])
	d2 := 0.5 - float64(w[2])
	if almostEq(d1, d2, 1e-9) {
		t.Fatal("per-layer trust ratios had no effect")
	}
	// Within a layer, identical elements move identically.
	//simlint:allow floateq symmetric lanes must compute bit-identically
	if w[0] != w[1] || w[2] != w[3] {
		t.Fatal("within-layer asymmetry")
	}
}

func TestLAMBZeroWeightTrustOne(t *testing.T) {
	o := New(LAMB, Hyper{LR: 0.01})
	w := []float32{0}
	o.Step(w, []float32{1})
	//simlint:allow floateq 0 is the untouched sentinel
	if w[0] == 0 {
		t.Fatal("zero-norm layer should still update (trust=1)")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on len mismatch")
		}
	}()
	New(SGD, Hyper{}).Step([]float32{1, 2}, []float32{1})
}

func TestNamesAndKinds(t *testing.T) {
	wantNames := map[Kind]string{
		SGD: "SGD", Momentum: "Momentum", Nesterov: "Nesterov",
		Adagrad: "Adagrad", RMSProp: "RMSProp", Adam: "Adam",
		AdamW: "AdamW", LAMB: "LAMB", AMSGrad: "AMSGrad", AdamA: "AdamA",
	}
	for _, k := range Kinds() {
		o := New(k, Hyper{})
		if o.Name() != wantNames[k] || o.Kind() != k || k.String() != wantNames[k] {
			t.Errorf("naming mismatch for %v: %q", k, o.Name())
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float32 {
		o := New(Adam, Hyper{LR: 0.01})
		w := []float32{1, 2, 3}
		for i := 0; i < 5; i++ {
			o.Step(w, []float32{0.1, -0.2, 0.3})
		}
		return w
	}
	a, b := run(), run()
	for i := range a {
		//simlint:allow floateq repeated runs must be bit-identical
		if a[i] != b[i] {
			t.Fatal("nondeterministic update")
		}
	}
}

// Property: the first Adam step moves every coordinate against its
// gradient's sign.
func TestAdamFirstStepSignProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		g := make([]float32, len(raw))
		for i, r := range raw {
			g[i] = float32(r)
		}
		w := make([]float32, len(raw))
		o := New(Adam, Hyper{LR: 0.001})
		o.Step(w, g)
		for i := range w {
			switch {
			case g[i] > 0 && w[i] >= 0:
				return false
			case g[i] < 0 && w[i] <= 0:
				return false
			//simlint:allow floateq gradients are literal zeros; any drift is a spurious update
			case g[i] == 0 && w[i] != 0:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single Adam step is bounded. Per Kingma & Ba §2.1, the
// effective step magnitude satisfies |Δ| ≤ lr·(1−β₁)/√(1−β₂) when
// (1−β₁) > √(1−β₂), which holds for the default betas (0.1 > 0.0316).
func TestAdamStepBoundedProperty(t *testing.T) {
	hp := DefaultHyper()
	bound := hp.LR * (1 - hp.Beta1) / math.Sqrt(1-hp.Beta2) * (1 + 1e-6)
	f := func(raw []int8, steps uint8) bool {
		if len(raw) == 0 {
			return true
		}
		g := make([]float32, len(raw))
		for i, r := range raw {
			g[i] = float32(r) / 16
		}
		w := make([]float32, len(raw))
		o := New(Adam, Hyper{})
		n := int(steps%5) + 1
		prev := make([]float32, len(w))
		for s := 0; s < n; s++ {
			copy(prev, w)
			o.Step(w, g)
			for i := range w {
				if math.Abs(float64(w[i]-prev[i])) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHyperDefaults(t *testing.T) {
	h := Hyper{}.withDefaults()
	d := DefaultHyper()
	if h != d {
		t.Fatalf("withDefaults = %+v, want %+v", h, d)
	}
	// Explicit values survive.
	h2 := Hyper{LR: 0.5}.withDefaults()
	//simlint:allow floateq copied hyperparameters are bit-identical
	if h2.LR != 0.5 || h2.Beta1 != d.Beta1 {
		t.Fatal("withDefaults clobbered explicit LR or missed Beta1")
	}
}

func TestPrecisionSpec(t *testing.T) {
	s := SpecFor(Adam, Mixed16)
	//simlint:allow floateq unquantized specs are exact small integers
	if s.ResidentBytes() != 12 { // 4 master + 8 moments
		t.Fatalf("resident = %v", s.ResidentBytes())
	}
	if s.HostTrafficBytes() != 4 { // 2 grad in + 2 weight out
		t.Fatalf("host traffic = %d", s.HostTrafficBytes())
	}
	//simlint:allow floateq unquantized specs are exact small integers
	if s.OffloadTrafficBytes() != 24 { // resident read + written
		t.Fatalf("offload traffic = %v", s.OffloadTrafficBytes())
	}
	f := SpecFor(SGD, FP32)
	//simlint:allow floateq unquantized specs are exact small integers
	if f.ResidentBytes() != 4 || f.HostTrafficBytes() != 8 {
		t.Fatalf("SGD/FP32 spec = %+v", f)
	}
}

func TestPrecisionString(t *testing.T) {
	if FP32.String() != "FP32" || Mixed16.String() != "Mixed16" {
		t.Fatal("precision names")
	}
	if Precision(9).String() == "" {
		t.Fatal("unknown precision should render")
	}
}

func TestKernelSpecs(t *testing.T) {
	for _, k := range Kinds() {
		kn := KernelFor(k)
		if kn.FlopsPerElem <= 0 {
			t.Errorf("%v: flops %d", k, kn.FlopsPerElem)
		}
		if k == LAMB {
			if kn.ReadPasses != 2 || !kn.GlobalReduce {
				t.Errorf("LAMB kernel = %+v", kn)
			}
		} else if kn.ReadPasses != 1 || kn.GlobalReduce {
			t.Errorf("%v kernel = %+v", k, kn)
		}
	}
	// Cost ordering: richer optimizers cost more per element.
	if !(KernelFor(SGD).FlopsPerElem < KernelFor(Adam).FlopsPerElem &&
		KernelFor(Adam).FlopsPerElem < KernelFor(LAMB).FlopsPerElem) {
		t.Error("kernel flops not ordered SGD < Adam < LAMB")
	}
}

func TestAMSGradMatchesAdamOnConstantGradient(t *testing.T) {
	// With constant gradients, v̂ is non-decreasing, so the max never binds
	// and AMSGrad equals Adam exactly.
	wa := []float32{1, -2}
	wm := []float32{1, -2}
	g := []float32{0.5, -0.25}
	adam := New(Adam, Hyper{LR: 0.01})
	ams := New(AMSGrad, Hyper{LR: 0.01})
	for i := 0; i < 10; i++ {
		adam.Step(wa, g)
		ams.Step(wm, g)
	}
	for i := range wa {
		//simlint:allow floateq the two implementations must agree bit-exactly
		if wa[i] != wm[i] {
			t.Fatalf("diverged on constant gradients: %v vs %v", wa, wm)
		}
	}
}

func TestAMSGradMaxBindsAfterSpike(t *testing.T) {
	// A large-gradient spike inflates v̂max; afterwards AMSGrad's steps are
	// strictly smaller than Adam's (its denominator cannot shrink).
	wa := []float32{0}
	wm := []float32{0}
	adam := New(Adam, Hyper{LR: 0.01})
	ams := New(AMSGrad, Hyper{LR: 0.01})
	spike := []float32{100}
	small := []float32{0.01}
	adam.Step(wa, spike)
	ams.Step(wm, spike)
	for i := 0; i < 20; i++ {
		prevA, prevM := wa[0], wm[0]
		adam.Step(wa, small)
		ams.Step(wm, small)
		da := math.Abs(float64(wa[0] - prevA))
		dm := math.Abs(float64(wm[0] - prevM))
		if dm > da {
			t.Fatalf("step %d: AMSGrad step %v exceeded Adam %v after spike", i, dm, da)
		}
	}
	if approx.Equal(float64(wm[0]), float64(wa[0])) {
		t.Fatal("max never bound — test not exercising AMSGrad")
	}
}

func TestAdam8bitConvergesNearAdam(t *testing.T) {
	const n = 512
	target := make([]float32, n)
	for i := range target {
		target[i] = float32(i%11) - 5
	}
	run := func(step func(w, g []float32)) []float32 {
		w := make([]float32, n)
		g := make([]float32, n)
		for s := 0; s < 800; s++ {
			for i := range w {
				g[i] = w[i] - target[i]
			}
			step(w, g)
		}
		return w
	}
	exact := New(Adam, Hyper{LR: 0.05})
	quant := NewAdam8bit(Hyper{LR: 0.05})
	we := run(exact.Step)
	wq := run(quant.Step)
	var worst float64
	for i := range we {
		d := math.Abs(float64(we[i] - wq[i]))
		if d > worst {
			worst = d
		}
	}
	// Quantisation noise exists but both land on the target.
	if worst > 0.05 {
		t.Fatalf("8-bit state diverged from fp32 Adam by %v", worst)
	}
	var loss float64
	for i := range wq {
		d := float64(wq[i] - target[i])
		loss += d * d
	}
	if loss > 0.1 {
		t.Fatalf("8-bit Adam failed to converge: loss %v", loss)
	}
}

func TestAdam8bitAccounting(t *testing.T) {
	a := NewAdam8bit(Hyper{})
	if b := a.StateBytesPerParam(); b < 2 || b > 2.1 {
		t.Fatalf("state bytes/param = %v, want ~2.03", b)
	}
	if a.Name() != "Adam-8bit" {
		t.Fatal("name")
	}
	w := make([]float32, 10)
	a.Step(w, make([]float32, 10))
	if a.Steps() != 1 {
		t.Fatal("steps")
	}
	a.Reset()
	if a.Steps() != 0 {
		t.Fatal("reset")
	}
}

func TestAdam8bitSizeChangePanics(t *testing.T) {
	a := NewAdam8bit(Hyper{})
	a.Step(make([]float32, 8), make([]float32, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("size change accepted")
		}
	}()
	a.Step(make([]float32, 9), make([]float32, 9))
}

func TestQ8StateSpec(t *testing.T) {
	s := SpecFor(Adam, Q8State)
	if s.StateBytes != 2 { // two 1-byte moments
		t.Fatalf("q8 state bytes = %d", s.StateBytes)
	}
	//simlint:allow floateq 8/256 is exactly representable
	if s.ScaleBytesPerParam != 8.0/QuantBlockSize { // 2 fp32 absmax / 256 params
		t.Fatalf("q8 scale bytes = %v", s.ScaleBytesPerParam)
	}
	//simlint:allow floateq 6+1/32 is exactly representable
	if s.ResidentBytes() != 6+8.0/QuantBlockSize {
		t.Fatalf("q8 resident = %v", s.ResidentBytes())
	}
	if s.HostTrafficBytes() != 4 {
		t.Fatalf("q8 host traffic = %d", s.HostTrafficBytes())
	}
	if Q8State.String() != "Mixed16+Q8state" {
		t.Fatal("precision name")
	}
}

func TestQ8SpecMatchesAdam8bit(t *testing.T) {
	// The abstract spec and the concrete quantized optimizer must agree on
	// the per-parameter resident state footprint: 2 one-byte moments plus
	// one float32 absmax per moment per QuantBlockSize block.
	s := SpecFor(Adam, Q8State)
	a := NewAdam8bit(Hyper{})
	specState := float64(s.StateBytes) + s.ScaleBytesPerParam
	//simlint:allow floateq both sides are sums of exact binary fractions
	if specState != a.StateBytesPerParam() {
		t.Fatalf("spec state %v != Adam8bit %v B/param", specState, a.StateBytesPerParam())
	}
}

func TestSpecWithAccum(t *testing.T) {
	s := SpecFor(AdamA, Mixed16)
	for _, n := range []int{0, 1} {
		if got := s.WithAccum(n); got != s {
			t.Fatalf("WithAccum(%d) changed spec: %+v", n, got)
		}
	}
	a4 := s.WithAccum(4)
	if a4.GradBytes != 4*s.GradBytes {
		t.Fatalf("WithAccum(4) grad bytes = %d, want %d", a4.GradBytes, 4*s.GradBytes)
	}
	//simlint:allow floateq resident footprint must be bit-identical
	if a4.ResidentBytes() != s.ResidentBytes() || a4.WeightOutBytes != s.WeightOutBytes {
		t.Fatal("WithAccum must only touch gradient traffic")
	}
	k := KernelFor(AdamA)
	if got := k.WithAccum(1); got != k {
		t.Fatalf("Kernel.WithAccum(1) changed kernel: %+v", got)
	}
	k4 := k.WithAccum(4)
	if k4.FlopsPerElem != k.FlopsPerElem+3*k.FoldFlops {
		t.Fatalf("Kernel.WithAccum(4) flops = %d", k4.FlopsPerElem)
	}
	if k4.ReadPasses != 1 || k4.GlobalReduce {
		t.Fatal("accumulation must not add read passes or reductions")
	}
	// Kinds without an accumulation form are untouched.
	ka := KernelFor(Adam)
	if got := ka.WithAccum(8); got != ka {
		t.Fatalf("Adam WithAccum(8) changed kernel: %+v", got)
	}
}

func TestClipGlobalNormNonFinite(t *testing.T) {
	big := float32(math.MaxFloat32)
	cases := []struct {
		name string
		g    []float32
		want func(norm float64) bool
	}{
		{"nan", []float32{1, float32(math.NaN()), 3}, math.IsNaN},
		{"posinf", []float32{float32(math.Inf(1)), 2}, func(n float64) bool { return math.IsInf(n, 1) }},
		{"neginf-component", []float32{float32(math.Inf(-1))}, func(n float64) bool { return math.IsInf(n, 1) }},
		// Squaring MaxFloat32 overflows float64's range only when summed
		// enough times; two maximal components already exceed maxNorm but
		// stay finite — the clip must still fire for those.
		{"subnormal-overflow", []float32{big, big, big, big}, func(n float64) bool { return !math.IsInf(n, 0) && !math.IsNaN(n) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := append([]float32(nil), tc.g...)
			norm := ClipGlobalNorm(g, 1.0)
			if !tc.want(norm) {
				t.Fatalf("norm = %v", norm)
			}
			if math.IsNaN(norm) || math.IsInf(norm, 0) {
				// Non-finite norm: gradient must be untouched (skip-step).
				for i := range g {
					if !sameFloat32(g[i], tc.g[i]) {
						t.Fatalf("g[%d] mutated: %v -> %v", i, tc.g[i], g[i])
					}
				}
			} else {
				// Finite overflow-adjacent norm: clip fires. The scale is a
				// subnormal float32 here, so allow its reduced precision.
				if got := GlobalNorm(g); got > 1.01 {
					t.Fatalf("clipped norm = %v", got)
				}
			}
		})
	}
}

func sameFloat32(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	//simlint:allow floateq identity check for untouched memory
	return a == b
}

// StepLayers applies one LAMB step treating w[bounds[i]:bounds[i+1]] as
// separate layers. bounds must start at 0 and end at len(w).
func (l *lamb) StepLayers(w, g []float32, bounds []int) {
	checkLens(w, g)
	l.ensureState(len(w))
	l.steps++
	for i := 0; i+1 < len(bounds); i++ {
		l.updateLayer(w, g, bounds[i], bounds[i+1])
	}
}
