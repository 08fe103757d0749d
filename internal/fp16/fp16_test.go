package fp16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := map[float32]float32{
		0:            0,
		1:            1,
		-1:           -1,
		0.5:          0.5,
		2:            2,
		65504:        65504,        // max half
		6.1035156e-5: 6.1035156e-5, // min normal
		-0.25:        -0.25,
		1024:         1024,
		1.5:          1.5,
	}
	//simlint:allow maporder table-driven cases, each asserted independently
	for in, want := range cases {
		//simlint:allow floateq fp16 rounding is specified bit-exact
		if got := Round(in); got != want {
			t.Errorf("Round(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	h := FromFloat32(70000)
	if !h.IsInf() {
		t.Fatalf("70000 -> %#x, want +Inf", uint16(h))
	}
	if !math.IsInf(float64(ToFloat32(h)), 1) {
		t.Fatal("round trip of overflow not +Inf")
	}
	hn := FromFloat32(-70000)
	if !hn.IsInf() || ToFloat32(hn) > 0 {
		t.Fatal("negative overflow")
	}
}

func TestUnderflowToZero(t *testing.T) {
	//simlint:allow floateq fp16 rounding is specified bit-exact
	if got := Round(1e-9); got != 0 {
		t.Fatalf("1e-9 -> %v, want 0 (below subnormal range)", got)
	}
	// Sign preserved through underflow.
	h := FromFloat32(float32(math.Copysign(1e-9, -1)))
	if uint16(h) != 0x8000 {
		t.Fatalf("-1e-9 -> %#x, want -0", uint16(h))
	}
}

func TestSubnormals(t *testing.T) {
	// Smallest subnormal: 2^-24.
	//simlint:allow floateq fp16 rounding is specified bit-exact
	if got := Round(MinSubnormal); got != MinSubnormal {
		t.Fatalf("min subnormal round trip = %v", got)
	}
	// A value inside the subnormal range survives with absolute error
	// bounded by half the subnormal step.
	in := float32(3.1e-6)
	got := Round(in)
	if math.Abs(float64(got-in)) > MinSubnormal/2+1e-12 {
		t.Fatalf("subnormal %v -> %v", in, got)
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatalf("NaN -> %#x", uint16(h))
	}
	if !math.IsNaN(float64(ToFloat32(h))) {
		t.Fatal("NaN round trip lost")
	}
	if Bits(0x7C00).IsNaN() {
		t.Fatal("Inf classified as NaN")
	}
}

func TestInfRoundTrip(t *testing.T) {
	h := FromFloat32(float32(math.Inf(1)))
	if !h.IsInf() {
		t.Fatal("inf conversion")
	}
	if !math.IsInf(float64(ToFloat32(h)), 1) {
		t.Fatal("inf round trip")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly between 1 and 1+2^-10: ties to even (1.0).
	in := float32(1) + float32(math.Pow(2, -11))
	if got := Round(in); got != 1 {
		t.Fatalf("tie %v -> %v, want 1 (round to even)", in, got)
	}
	// 1 + 3·2^-11 ties between 1+2^-10 and 1+2^-9: to even → 1+2^-9.
	in = float32(1) + 3*float32(math.Pow(2, -11))
	want := float32(1) + float32(math.Pow(2, -9))
	if got := Round(in); got != want {
		t.Fatalf("tie %v -> %v, want %v", in, got, want)
	}
}

// Property: every binary16 bit pattern survives Bits→f32→Bits exactly
// (half is a subset of float32). NaNs compare by classification.
func TestAllBitsRoundTrip(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := Bits(i)
		f := ToFloat32(h)
		back := FromFloat32(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("%#x: NaN lost", i)
			}
			continue
		}
		if back != h {
			t.Fatalf("%#x -> %v -> %#x", i, f, uint16(back))
		}
	}
}

// Property: quantisation error is within the format's relative epsilon for
// normal-range values.
func TestRelativeErrorBoundProperty(t *testing.T) {
	f := func(raw uint32) bool {
		x := math.Float32frombits(raw)
		ax := math.Abs(float64(x))
		if math.IsNaN(float64(x)) || ax > MaxValue || ax < MinNormal {
			return true
		}
		q := float64(Round(x))
		return math.Abs(q-float64(x)) <= ax*Epsilon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: rounding is monotone (order-preserving).
func TestMonotoneProperty(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Round(a) <= Round(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundSlice(t *testing.T) {
	src := []float32{1, 1e-9, 65504, 0.333333}
	dst := make([]float32, len(src))
	RoundSlice(dst, src)
	for i := range src {
		//simlint:allow floateq fp16 rounding is specified bit-exact
		if dst[i] != Round(src[i]) {
			t.Fatal("RoundSlice mismatch")
		}
	}
	// Aliasing is allowed.
	RoundSlice(src, src)
	//simlint:allow floateq 0 is the untouched sentinel
	if src[1] != 0 {
		t.Fatal("in-place rounding")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	RoundSlice(dst[:1], src)
}

func TestMaxRelError(t *testing.T) {
	// Exactly representable values: zero error.
	//simlint:allow floateq exact representables must report zero error
	if e := MaxRelError([]float32{1, 2, 0.5, 0}); e != 0 {
		t.Fatalf("exact values err = %v", e)
	}
	// A dense value errs but within epsilon.
	e := MaxRelError([]float32{0.1, 0.2, 0.3})
	//simlint:allow floateq exact zero would mean the error path was skipped
	if e == 0 || e > Epsilon {
		t.Fatalf("err = %v", e)
	}
}

// IsNaN reports whether the half-precision value is a NaN.
func (h Bits) IsNaN() bool {
	return h&0x7C00 == 0x7C00 && h&0x3FF != 0
}

// IsInf reports whether the half-precision value is ±Inf.
func (h Bits) IsInf() bool {
	return h&0x7FFF == 0x7C00
}

// MaxRelError returns the worst-case relative quantisation error over a
// slice (0 for exactly representable inputs; NaN/Inf and zeros skipped).
func MaxRelError(xs []float32) float64 {
	var worst float64
	for _, x := range xs {
		fx := float64(x)
		if !(math.Abs(fx) > 0) || math.IsInf(fx, 0) { // zero or NaN
			continue
		}
		q := float64(Round(x))
		if rel := math.Abs(q-fx) / math.Abs(fx); rel > worst {
			worst = rel
		}
	}
	return worst
}
