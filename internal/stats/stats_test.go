package stats

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/approx"
	"testing/quick"
)

func TestHistBasics(t *testing.T) {
	h := NewHist("lat")
	for _, v := range []float64{3, 1, 2} {
		h.Add(v)
	}
	if !approx.Equal(h.Percentile(0), 1) || !approx.Equal(h.Percentile(50), 2) || !approx.Equal(h.Percentile(100), 3) {
		t.Fatalf("p0=%v p50=%v p100=%v", h.Percentile(0), h.Percentile(50), h.Percentile(100))
	}
	if h.Name() != "lat" {
		t.Fatal("name")
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist("e")
	if !approx.Equal(h.Percentile(0), 0) || !approx.Equal(h.Percentile(50), 0) || !approx.Equal(h.Percentile(100), 0) {
		t.Fatal("empty hist should return zeros")
	}
}

func TestHistPercentile(t *testing.T) {
	h := NewHist("p")
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if p := h.Percentile(0); !approx.Equal(p, 1) {
		t.Fatalf("p0=%v", p)
	}
	if p := h.Percentile(100); !approx.Equal(p, 100) {
		t.Fatalf("p100=%v", p)
	}
	if p := h.Percentile(50); math.Abs(p-50.5) > 0.01 {
		t.Fatalf("p50=%v", p)
	}
}

// TestHistPercentileLinearInterpolation pins the interpolation behaviour
// the doc comment promises: linear between the two closest ranks at
// p/100·(n-1), not nearest-rank. A nearest-rank implementation would fail
// every sub-case here that lands between samples.
func TestHistPercentileLinearInterpolation(t *testing.T) {
	// Known sample set, added out of order to exercise the lazy sort.
	h := NewHist("li")
	for _, v := range []float64{40, 10, 50, 20, 30} {
		h.Add(v)
	}
	cases := []struct{ p, want float64 }{
		{0, 10},
		{25, 20},   // exact rank 1
		{50, 30},   // exact middle sample
		{99, 49.6}, // rank 3.96: 40 + 0.96×(50−40)
		{100, 50},
		{10, 14},   // rank 0.4: 10 + 0.4×(20−10)
		{62.5, 35}, // rank 2.5: halfway between 30 and 40
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}

	// Two samples: p50 must be their midpoint (nearest-rank would return
	// one of the samples).
	h2 := NewHist("li2")
	h2.Add(1)
	h2.Add(2)
	if got := h2.Percentile(50); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 of {1,2} = %v, want 1.5", got)
	}
}

// Property: percentile is monotone in p and bounded by the samples.
func TestHistPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHist("q")
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Add(v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := h.Percentile(p)
			if v < prev-1e-9 || v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 12345678.0)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "alpha") {
		t.Fatalf("text:\n%s", s)
	}
	if !strings.Contains(s, "1.235e+07") {
		t.Fatalf("big float formatting missing: %s", s)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| name | value |") {
		t.Fatalf("markdown:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Fatalf("csv:\n%s", csv)
	}
	if tb.NumRows() != 2 || tb.Title() != "demo" {
		t.Fatal("accessors")
	}
	if got := tb.Row(0)[0]; got != "alpha" {
		t.Fatalf("Row(0) = %v", tb.Row(0))
	}
	if h := tb.Headers(); len(h) != 2 || h[0] != "name" {
		t.Fatalf("Headers = %v", h)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`x,y`, `he said "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"he said ""hi"""`) {
		t.Fatalf("csv quoting:\n%s", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.5:     "0.500",
		150:     "150.0",
		2e7:     "2.000e+07",
		0.00005: "5.000e-05",
	}
	//simlint:allow maporder table-driven cases, each asserted independently
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFigureTable(t *testing.T) {
	f := NewFigure("speedup", "params", "x")
	a := f.AddSeries("optimstore")
	b := f.AddSeries("baseline")
	a.Add(1, 10)
	a.Add(2, 20)
	b.Add(1, 1)
	// baseline has no point at x=2: cell must be "-"
	tb := f.Table()
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	if row := tb.Row(1); row[2] != "-" {
		t.Fatalf("missing point cell = %q", row[2])
	}
	if y, ok := a.YAt(2); !ok || !approx.Equal(y, 20) {
		t.Fatalf("YAt: %v %v", y, ok)
	}
	if _, ok := b.YAt(99); ok {
		t.Fatal("YAt found nonexistent x")
	}
	if !strings.Contains(f.String(), "speedup") {
		t.Fatal("figure String missing title")
	}
}

func TestFigureXValuesSorted(t *testing.T) {
	f := NewFigure("f", "x", "y")
	s := f.AddSeries("s")
	for _, x := range []float64{5, 1, 3} {
		s.Add(x, x)
	}
	xs := f.xValues()
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("xValues not sorted: %v", xs)
	}
}

func TestFigureXRange(t *testing.T) {
	f := NewFigure("r", "x", "y")
	if _, _, ok := f.XRange(); ok {
		t.Fatal("empty figure has a range")
	}
	s := f.AddSeries("s")
	s.Add(5, 1)
	s.Add(2, 1)
	s.Add(9, 1)
	min, max, ok := f.XRange()
	if !ok || !approx.Equal(min, 2) || !approx.Equal(max, 9) {
		t.Fatalf("range = %v..%v %v", min, max, ok)
	}
}

// TestHistPercentileBoundariesAndNaN is the table-driven pin of the
// hardened edge cases: p outside [0,100] clamps to the exact min/max with
// no interpolation, a NaN p propagates as NaN, and NaN samples are
// dropped at Add so Percentile stays finite.
func TestHistPercentileBoundariesAndNaN(t *testing.T) {
	h := NewHist("edge")
	for _, v := range []float64{10, 20, 30, 40} {
		h.Add(v)
	}
	cases := []struct {
		name string
		p    float64
		want float64 // NaN means "want NaN"
	}{
		{"p=0 is exact min", 0, 10},
		{"p=100 is exact max", 100, 40},
		{"negative p clamps to min", -25, 10},
		{"p>100 clamps to max", 250, 40},
		{"-Inf clamps to min", math.Inf(-1), 10},
		{"+Inf clamps to max", math.Inf(1), 40},
		{"just inside 0 interpolates", 1e-9, 10},
		{"just inside 100 interpolates", 100 - 1e-9, 40},
		{"NaN p propagates", math.NaN(), math.NaN()},
	}
	for _, c := range cases {
		got := h.Percentile(c.p)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Percentile(%v) = %v, want NaN", c.name, c.p, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s: Percentile(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}

	// NaN p on an empty histogram still returns the documented 0 — the
	// no-samples case wins before p is even inspected.
	//simlint:allow floateq the empty case returns the literal constant 0, bit-exact
	if got := NewHist("empty").Percentile(math.NaN()); got != 0 {
		t.Errorf("empty Percentile(NaN) = %v, want 0", got)
	}
}

// TestHistNaNSamplesDropped checks a NaN sample never reaches the
// percentiles: they are identical to a histogram that never saw it.
func TestHistNaNSamplesDropped(t *testing.T) {
	h := NewHist("nan")
	h.Add(5)
	h.Add(math.NaN())
	h.Add(1)
	h.Add(math.NaN())
	h.Add(3)
	clean := NewHist("clean")
	for _, v := range []float64{5, 1, 3} {
		clean.Add(v)
	}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if got, want := h.Percentile(p), clean.Percentile(p); !approx.Equal(got, want) {
			t.Fatalf("Percentile(%v) = %v, want %v (NaN samples must be dropped)", p, got, want)
		}
	}
	// All-NaN input behaves exactly like an empty histogram.
	all := NewHist("allnan")
	all.Add(math.NaN())
	//simlint:allow floateq empty-histogram summaries return the literal constant 0, bit-exact
	if all.Percentile(0) != 0 || all.Percentile(50) != 0 || all.Percentile(100) != 0 {
		t.Fatal("all-NaN histogram should match the empty histogram")
	}
}
