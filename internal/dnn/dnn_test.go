package dnn

import (
	"strings"
	"testing"

	"repro/internal/approx"
)

func TestZooValid(t *testing.T) {
	zoo := Zoo()
	if len(zoo) < 5 {
		t.Fatalf("zoo too small: %d", len(zoo))
	}
	seen := map[string]bool{}
	for _, m := range zoo {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if seen[m.Name] {
			t.Errorf("duplicate model %q", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestZooSpansScales(t *testing.T) {
	zoo := Zoo()
	var smallest, largest int64 = zoo[0].Params, zoo[0].Params
	for _, m := range zoo {
		if m.Params < smallest {
			smallest = m.Params
		}
		if m.Params > largest {
			largest = m.Params
		}
	}
	// The evaluation needs models both below and above GPU-memory scale.
	if smallest > 100_000_000 {
		t.Fatal("zoo lacks a GPU-resident-scale model")
	}
	if largest < 100_000_000_000 {
		t.Fatal("zoo lacks an offload-mandatory-scale model")
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("GPT-13B")
	if err != nil || m.Params != 13_000_000_000 {
		t.Fatalf("ByName: %v %v", m, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestTransformerFlops(t *testing.T) {
	m := GPT13B()
	fwd := m.FwdFlopsPerSample()
	want := 2 * 13e9 * 2048
	if fwd < want*0.99 || fwd > want*1.01 {
		t.Fatalf("fwd flops = %g, want %g", fwd, want)
	}
	if !approx.Equal(m.StepFlops(4), 3*fwd*4) {
		t.Fatal("step flops should be 3× fwd × batch")
	}
	if m.BatchTokens(4) != 4*2048 {
		t.Fatal("batch tokens")
	}
}

func TestCNNFlops(t *testing.T) {
	m := ResNet50()
	if !approx.Equal(m.FwdFlopsPerSample(), 4.1e9) {
		t.Fatal("cnn fwd flops")
	}
	if m.BatchTokens(32) != 32 {
		t.Fatal("cnn batch tokens = samples")
	}
}

func TestDLRMSparse(t *testing.T) {
	m := DLRM()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !approx.Equal(m.UpdateFraction(), 0.001) {
		t.Fatalf("update fraction = %v", m.UpdateFraction())
	}
	if !approx.Equal(GPT13B().UpdateFraction(), 1) {
		t.Fatal("dense models should update everything")
	}
	if !approx.Equal(m.FwdFlopsPerSample(), 1e9) {
		t.Fatal("recommender flops")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Model{
		{},
		{Name: "x", Params: 1, Layers: 1, Arch: Transformer}, // no seq/hidden
		{Name: "x", Params: 1, Layers: 1, Arch: CNN},         // no flops
		{Name: "x", Params: 0, Layers: 1},
		{Name: "x", Params: 1, Layers: 1, Arch: Recommender}, // no flops
		{Name: "x", Params: 1, Layers: 1, Arch: CNN, FlopsPerSample: 1, SparseFraction: 2},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int64]string{
		42:              "42",
		1500:            "2K",
		25_600_000:      "26M",
		1_500_000_000:   "1.5B",
		175_000_000_000: "175.0B",
		2e12:            "2.0T",
	}
	//simlint:allow maporder table-driven cases, each asserted independently
	for in, want := range cases {
		if got := FormatCount(in); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestModelString(t *testing.T) {
	s := GPT13B().String()
	if !strings.Contains(s, "GPT-13B") || !strings.Contains(s, "13.0B") {
		t.Fatalf("String = %q", s)
	}
	if Transformer.String() != "Transformer" || CNN.String() != "CNN" {
		t.Fatal("arch names")
	}
	if Arch(9).String() == "" {
		t.Fatal("unknown arch should render")
	}
}
