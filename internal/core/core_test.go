package core

import (
	"strings"
	"testing"

	"repro/internal/approx"

	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/optim"
	"repro/internal/trace"
)

// testConfig returns a fast-to-simulate configuration.
func testConfig(model dnn.Model) Config {
	cfg := DefaultConfig(model)
	cfg.MaxSimUnits = 256
	return cfg
}

func mustRun(t *testing.T, name string, cfg Config) *Report {
	t.Helper()
	sys, err := NewSystem(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func mustRoofline(t *testing.T, name string, cfg Config) Roofline {
	t.Helper()
	r, ok := RooflineFor(name, cfg)
	if !ok {
		t.Fatalf("RooflineFor(%q) unknown", name)
	}
	return r
}

func TestAllSystemsRun(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	for _, name := range SystemNames() {
		r := mustRun(t, name, cfg)
		if r.System == "" || r.Model != "GPT-13B" {
			t.Errorf("%s: malformed report %+v", name, r)
		}
		if name == "gpuresident" {
			if r.Feasible {
				t.Errorf("gpu-resident should be infeasible for 13B on a 40GB GPU")
			}
			continue
		}
		if !r.Feasible || r.OptStepTime <= 0 || r.Energy.Total() <= 0 {
			t.Errorf("%s: degenerate report: %+v", name, r)
		}
		if r.StepTime < r.FwdBwdTime {
			t.Errorf("%s: step time below fwd+bwd floor", name)
		}
	}
}

func TestHeadlineOrdering(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	opt := mustRun(t, "optimstore", cfg)
	off := mustRun(t, "hostoffload", cfg)
	ctl := mustRun(t, "ctrlisp", cfg)
	// The paper's headline: in-storage on-die beats both host offload and
	// controller-level processing on the optimizer step.
	if opt.OptStepTime >= off.OptStepTime {
		t.Fatalf("optimstore (%v) not faster than hostoffload (%v)", opt.OptStepTime, off.OptStepTime)
	}
	if opt.OptStepTime >= ctl.OptStepTime {
		t.Fatalf("optimstore (%v) not faster than ctrl-isp (%v)", opt.OptStepTime, ctl.OptStepTime)
	}
	// The speedup must be material (not noise): >1.5× vs host offload.
	if s := opt.Speedup(off); s < 1.5 {
		t.Fatalf("speedup vs offload = %.2f, want > 1.5", s)
	}
	// And energy strictly lower.
	if opt.Energy.Total() >= off.Energy.Total() {
		t.Fatalf("optimstore energy %v >= offload %v", opt.Energy.Total(), off.Energy.Total())
	}
}

func TestGPUResidentCrossover(t *testing.T) {
	small := mustRun(t, "gpuresident", testConfig(dnn.BERTLarge()))
	if !small.Feasible {
		t.Fatal("BERT-Large should fit on a 40GB GPU")
	}
	// When feasible, GPU-resident is the fastest optimizer step.
	opt := mustRun(t, "optimstore", testConfig(dnn.BERTLarge()))
	if small.OptStepTime >= opt.OptStepTime {
		t.Fatalf("gpu-resident (%v) should beat in-storage (%v) when it fits",
			small.OptStepTime, opt.OptStepTime)
	}
	big := mustRun(t, "gpuresident", testConfig(dnn.GPT175B()))
	if big.Feasible {
		t.Fatal("GPT-175B cannot fit on a 40GB GPU")
	}
	if big.Notes == "" {
		t.Fatal("infeasible report should explain itself")
	}
}

func TestPCIeTrafficAccounting(t *testing.T) {
	cfg := testConfig(dnn.GPT13B()) // Adam + Mixed16
	opt := mustRun(t, "optimstore", cfg)
	off := mustRun(t, "hostoffload", cfg)
	units := cfg.TotalUnits()
	if want := (cfg.GradBytesPerUnit() + cfg.WeightOutBytesPerUnit()) * units; opt.PCIeBytes != want {
		t.Fatalf("optimstore PCIe = %d, want %d", opt.PCIeBytes, want)
	}
	if want := 2 * cfg.ResidentBytesPerUnit() * units; off.PCIeBytes != want {
		t.Fatalf("offload PCIe = %d, want %d", off.PCIeBytes, want)
	}
	// Adam/Mixed16: offload moves 24 B/param, OptimStore 4 B/param.
	ratio := float64(off.PCIeBytes) / float64(opt.PCIeBytes)
	if ratio < 5.9 || ratio > 6.1 {
		t.Fatalf("PCIe traffic ratio = %.2f, want 6.0", ratio)
	}
}

func TestLayoutAblation(t *testing.T) {
	colo := testConfig(dnn.GPT13B())
	colo.Layout = layout.Colocated
	split := testConfig(dnn.GPT13B())
	split.Layout = layout.SplitByComponent
	rc := mustRun(t, "optimstore", colo)
	rs := mustRun(t, "optimstore", split)
	// Splitting state across dies forces page gathers over the channel
	// buses: strictly slower and more bus traffic.
	if rc.OptStepTime >= rs.OptStepTime {
		t.Fatalf("colocated (%v) not faster than split (%v)", rc.OptStepTime, rs.OptStepTime)
	}
	if rc.BusBytes >= rs.BusBytes {
		t.Fatalf("colocated bus bytes %d >= split %d", rc.BusBytes, rs.BusBytes)
	}
}

func TestPrecisionAblation(t *testing.T) {
	mixed := testConfig(dnn.GPT13B())
	fp32 := testConfig(dnn.GPT13B())
	fp32.Precision = optim.FP32
	// OptimStore's external traffic is gradients + working weights, so
	// mixed precision halves it.
	rm := mustRun(t, "optimstore", mixed)
	rf := mustRun(t, "optimstore", fp32)
	if rm.PCIeBytes*2 != rf.PCIeBytes {
		t.Errorf("optimstore: mixed16 PCIe %d, fp32 %d (want 2×)", rm.PCIeBytes, rf.PCIeBytes)
	}
	// Host offload moves the FP32 resident state either way: precision
	// cannot help it — part of why in-storage wins.
	om := mustRun(t, "hostoffload", mixed)
	of := mustRun(t, "hostoffload", fp32)
	if om.PCIeBytes != of.PCIeBytes {
		t.Errorf("hostoffload PCIe should be precision-invariant: %d vs %d", om.PCIeBytes, of.PCIeBytes)
	}
}

func TestChannelScaling(t *testing.T) {
	base := testConfig(dnn.GPT13B())
	wide := testConfig(dnn.GPT13B())
	wide.SSD.Channels = 16
	rb := mustRun(t, "optimstore", base)
	rw := mustRun(t, "optimstore", wide)
	// Doubling internal parallelism must speed OptimStore materially…
	if g := float64(rb.OptStepTime) / float64(rw.OptStepTime); g < 1.5 {
		t.Fatalf("2× channels gave only %.2fx", g)
	}
	// …but barely moves the PCIe-bound offload baseline.
	ob := mustRun(t, "hostoffload", base)
	ow := mustRun(t, "hostoffload", wide)
	if g := float64(ob.OptStepTime) / float64(ow.OptStepTime); g > 1.3 {
		t.Fatalf("offload should be PCIe-bound, got %.2fx from channels", g)
	}
}

func TestEveryOptimizerRuns(t *testing.T) {
	for _, k := range optim.Kinds() {
		cfg := testConfig(dnn.GPT2XL())
		cfg.Optimizer = k
		r := mustRun(t, "optimstore", cfg)
		if r.OptStepTime <= 0 {
			t.Errorf("%v: zero step time", k)
		}
	}
}

func TestLAMBCostsMoreThanAdam(t *testing.T) {
	adam := testConfig(dnn.GPT2XL())
	lamb := testConfig(dnn.GPT2XL())
	lamb.Optimizer = optim.LAMB
	ra := mustRun(t, "optimstore", adam)
	rl := mustRun(t, "optimstore", lamb)
	// Two read passes + reduce round trips: strictly slower.
	if rl.OptStepTime <= ra.OptStepTime {
		t.Fatalf("LAMB (%v) should cost more than Adam (%v)", rl.OptStepTime, ra.OptStepTime)
	}
	if rl.NANDReadBytes <= ra.NANDReadBytes {
		t.Fatal("LAMB should read more NAND bytes (second pass)")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	a := mustRun(t, "optimstore", cfg)
	b := mustRun(t, "optimstore", cfg)
	if a.OptStepTime != b.OptStepTime || a.BusBytes != b.BusBytes {
		t.Fatalf("nondeterministic: %v vs %v", a.OptStepTime, b.OptStepTime)
	}
}

func TestOverlapReducesStepTime(t *testing.T) {
	with := testConfig(dnn.GPT13B())
	with.OverlapFraction = 0.5
	without := testConfig(dnn.GPT13B())
	without.OverlapFraction = 0
	rw := mustRun(t, "optimstore", with)
	rn := mustRun(t, "optimstore", without)
	if rw.OptStepTime != rn.OptStepTime {
		t.Fatal("overlap must not change the raw optimizer step")
	}
	if rw.StepTime >= rn.StepTime {
		t.Fatalf("overlap did not reduce end-to-end step: %v vs %v", rw.StepTime, rn.StepTime)
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig(dnn.GPT13B())
	if cfg.ElemsPerPage() != 4096 {
		t.Fatalf("elems per page = %d", cfg.ElemsPerPage())
	}
	if cfg.Comps() != 3 { // Adam: w + m + v
		t.Fatalf("comps = %d", cfg.Comps())
	}
	wantUnits := (int64(13_000_000_000) + 4095) / 4096
	if cfg.TotalUnits() != wantUnits {
		t.Fatalf("total units = %d, want %d", cfg.TotalUnits(), wantUnits)
	}
	if cfg.SimUnits() != cfg.MaxSimUnits {
		t.Fatal("sim units should clamp to MaxSimUnits for big models")
	}
	if cfg.ScaleFactor() <= 1 {
		t.Fatal("scale factor")
	}
	// A model below the window size simulates fully, unscaled.
	tiny := dnn.Model{Name: "tiny", Arch: dnn.Transformer, Params: 1_000_000,
		Layers: 2, Hidden: 64, SeqLen: 128}
	small := DefaultConfig(tiny)
	if small.SimUnits() != small.TotalUnits() || !approx.Equal(small.ScaleFactor(), 1) {
		t.Fatal("small model should simulate fully")
	}
	// Mixed16 Adam: grad 2B, wout 2B per param.
	if cfg.GradBytesPerUnit() != 4096*2 || cfg.WeightOutBytesPerUnit() != 4096*2 {
		t.Fatal("per-unit traffic")
	}
	if cfg.ResidentBytesPerUnit() != 3*16384 {
		t.Fatal("resident bytes")
	}
}

func TestConfigValidateRejects(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Batch = 0 },
		func(c *Config) { c.MaxSimUnits = 0 },
		func(c *Config) { c.TransferChunkBytes = 0 },
		func(c *Config) { c.OverlapFraction = 1.5 },
		func(c *Config) { c.Model.Params = 0 },
		func(c *Config) { c.SSD.Channels = 0 },
		func(c *Config) { c.ODP.Lanes = 0 },
	}
	for i, m := range muts {
		cfg := DefaultConfig(dnn.BERTLarge())
		m(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestODPBufferMustFitWorkingSet(t *testing.T) {
	cfg := testConfig(dnn.GPT13B()) // Adam: 3 state pages + 1 gradient page
	cfg.ODP.BufferKB = 48           // < 4 × 16 KiB
	if err := cfg.Validate(); err == nil {
		t.Fatal("undersized ODP buffer accepted")
	}
	// SGD needs only 2 pages: the same buffer is fine.
	cfg.Optimizer = optim.SGD
	if err := cfg.Validate(); err != nil {
		t.Fatalf("SGD with 48 KiB buffer rejected: %v", err)
	}
}

func TestNewSystemUnknown(t *testing.T) {
	_, err := NewSystem("bogus", testConfig(dnn.BERTLarge()))
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	for _, key := range SystemNames() {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown-system error %q does not list %q", err, key)
		}
	}
	if len(SystemNames()) != 5 {
		t.Fatal("system names")
	}
}

// TestNewSystemAcceptsOwnName pins that every system's display name
// round-trips through NewSystem to the same system.
func TestNewSystemAcceptsOwnName(t *testing.T) {
	cfg := testConfig(dnn.BERTLarge())
	for _, name := range SystemNames() {
		s, err := NewSystem(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := NewSystem(s.Name(), cfg)
		if err != nil {
			t.Fatalf("NewSystem(%q), the Name() of %q: %v", s.Name(), name, err)
		}
		if again.Name() != s.Name() {
			t.Fatalf("NewSystem(%q) built %q", s.Name(), again.Name())
		}
	}
}

// Paged-equivalence coverage lives in functional_test.go.

func TestMixedPrecisionDriftBounded(t *testing.T) {
	// FP16 gradient delivery perturbs Adam updates, but with FP32 master
	// weights the drift after 20 steps stays tiny relative to the ~0.02
	// total weight movement (20 steps × lr).
	drift, err := MixedPrecisionDrift(optim.Adam, optim.Hyper{LR: 1e-3}, 512, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	//simlint:allow floateq exact zero means the fp16 path was never exercised
	if drift == 0 {
		t.Fatal("quantisation had no effect at all — fp16 path not exercised")
	}
	if drift > 20*1e-3*0.05 {
		t.Fatalf("drift %v exceeds 5%% of total movement", drift)
	}
	// SGD drift is bounded by lr·Σ|g−q(g)| ≤ steps·lr·ε·max|g|-ish.
	drift, err = MixedPrecisionDrift(optim.SGD, optim.Hyper{LR: 1e-3}, 512, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if drift > 20*1e-3*4*4.9e-4 { // steps × lr × |g|≲4σ × fp16 epsilon
		t.Fatalf("SGD drift %v above analytic bound", drift)
	}
	if _, err := MixedPrecisionDrift(optim.Adam, optim.Hyper{}, 0, 1, 1); err == nil {
		t.Fatal("bad args accepted")
	}
}

func TestReportHelpers(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	opt := mustRun(t, "optimstore", cfg)
	off := mustRun(t, "hostoffload", cfg)
	if opt.Speedup(off) <= 1 {
		t.Fatal("speedup helper")
	}
	if opt.EnergyPerParamPJ(cfg.Model.Params) <= 0 {
		t.Fatal("energy per param")
	}
	if !approx.Equal(opt.EnergyPerParamPJ(0), 0) {
		t.Fatal("zero params should give zero")
	}
	if !strings.Contains(opt.String(), "optimstore") {
		t.Fatalf("String = %q", opt.String())
	}
	infeasible := mustRun(t, "gpuresident", cfg)
	if !strings.Contains(infeasible.String(), "infeasible") {
		t.Fatalf("infeasible String = %q", infeasible.String())
	}
	tab := ReportTable("t", []*Report{opt, off, infeasible})
	if tab.NumRows() != 3 {
		t.Fatal("report table rows")
	}
	et := EnergyTable("e", []*Report{opt, off, infeasible})
	if et.NumRows() != 2 { // infeasible dropped
		t.Fatal("energy table rows")
	}
}

func TestHostOffloadSmallTopologyNoWedge(t *testing.T) {
	// Regression: with few dies the admission window (4×dies) is smaller
	// than the PCIe transfer batch, so batches could never fill and the
	// pipeline wedged.
	cfg := testConfig(dnn.GPT13B())
	cfg.SSD.Channels = 2
	cfg.SSD.DiesPerChannel = 2
	r := mustRun(t, "hostoffload", cfg)
	if r.OptStepTime <= 0 {
		t.Fatal("degenerate run")
	}
}

func TestWindowCapacityGuard(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 10_000_000 // would exceed the simulated device window
	sys, _ := NewSystem("optimstore", cfg)
	if _, err := sys.Run(); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestSparseUpdatesScaleTraffic(t *testing.T) {
	dense := testConfig(dnn.GPT13B())
	sparse := testConfig(dnn.GPT13B())
	sparse.Model.SparseFraction = 0.01
	rd := mustRun(t, "optimstore", dense)
	rs := mustRun(t, "optimstore", sparse)
	ratio := float64(rd.PCIeBytes) / float64(rs.PCIeBytes)
	if ratio < 95 || ratio > 105 {
		t.Fatalf("sparse traffic ratio = %v, want ~100", ratio)
	}
	if rs.OptStepTime >= rd.OptStepTime {
		t.Fatal("sparse step should be far faster")
	}
}

func TestCheckpointAnalysis(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	r, err := Checkpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 1 {
		t.Fatalf("in-storage checkpoint speedup = %v", r.Speedup)
	}
	// 156 GB over 3.35 GB/s ≈ 47 s external stream.
	if s := r.HostStreamTime.Seconds(); s < 40 || s > 55 {
		t.Fatalf("host stream = %v s", s)
	}
	if !r.CapacityOK {
		t.Fatal("2×156 GB should fit a 2 TB device")
	}
	if r.String() == "" {
		t.Fatal("String")
	}
	bad := cfg
	bad.Batch = 0
	if _, err := Checkpoint(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestLayerwiseOverlapBeatsNoOverlap holds at every window size: the
// layer-wise step is composed outside the window, so a window that holds
// a single gradient chunk hides as much of the update as a large one.
// Perfect overlap would hide the smaller of backward (two thirds of
// fwd+bwd) and the update; the layer-wise line must hide at least half
// of that.
func TestLayerwiseOverlapBeatsNoOverlap(t *testing.T) {
	for _, units := range []int64{64, 256, 2048} {
		for _, sys := range simulatedSystems {
			layered := testConfig(dnn.GPT13B())
			layered.MaxSimUnits = units
			layered.LayerwiseOverlap = true
			none := layered
			none.LayerwiseOverlap = false
			none.OverlapFraction = 0
			rl, rn := mustRun(t, sys, layered), mustRun(t, sys, none)
			bwd := rn.FwdBwdTime - rn.FwdBwdTime/3
			if hidden := rn.StepTime - rl.StepTime; hidden < min(bwd, rn.OptStepTime)/2 {
				t.Errorf("%s at %d units: layer-wise overlap (%v) hides %v of no overlap's %v",
					sys, units, rl.StepTime, hidden, rn.StepTime)
			}
		}
	}
}

// TestReportTotalUnitsIsTouched pins one meaning of Report.TotalUnits on
// every row, the analytic one included: the units a step updates, which
// for the sparse DLRM is a thousandth of the model's units.
func TestReportTotalUnitsIsTouched(t *testing.T) {
	for _, m := range dnn.Zoo() {
		cfg := testConfig(m)
		cfg.MaxSimUnits = 64
		for _, sys := range SystemNames() {
			if r := mustRun(t, sys, cfg); r.TotalUnits != cfg.TouchedUnits() {
				t.Errorf("%s on %s: TotalUnits %d, want TouchedUnits %d", sys, m.Name, r.TotalUnits, cfg.TouchedUnits())
			}
		}
	}
}

// cluster prices cfg on a ring of cc.Workers from optimstore runs on the
// shard and on cfg itself, as experiment F16 does.
func cluster(t *testing.T, cfg Config, cc ClusterConfig) *ClusterReport {
	t.Helper()
	shard := cfg
	shard.Model.Params = ShardParams(cfg.Model.Params, cc.Workers)
	rep, err := RunCluster(cfg, cc, mustRun(t, SystemOptimStore, shard), mustRun(t, SystemOptimStore, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOneWorkerClusterIsOneDevice: a one-worker cluster runs no
// collectives and its shard is the whole model, so it composes its step
// by the single device's rule, under either overlap model.
func TestOneWorkerClusterIsOneDevice(t *testing.T) {
	for _, layerwise := range []bool{false, true} {
		cfg := testConfig(dnn.GPT13B())
		cfg.LayerwiseOverlap = layerwise
		got := cluster(t, cfg, DefaultCluster(1))
		if want := mustRun(t, SystemOptimStore, cfg); got.StepTime != want.StepTime {
			t.Errorf("layer-wise %v: one-worker cluster step %v, the device's %v", layerwise, got.StepTime, want.StepTime)
		}
	}
}

func TestClusterScaling(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	r1 := cluster(t, cfg, DefaultCluster(1))
	r4 := cluster(t, cfg, DefaultCluster(4))
	// Shard step shrinks roughly 1/N.
	ratio := float64(r1.ShardOptStep) / float64(r4.ShardOptStep)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("shard step scaling = %.2f, want ~4", ratio)
	}
	// Global throughput grows, but sub-linearly (collectives cost).
	if r4.TokensPerSec <= r1.TokensPerSec {
		t.Fatal("no scaling at all")
	}
	// Sharding the optimizer bottleneck yields superlinear per-worker
	// gains at small N (the ZeRO effect)…
	if r4.Efficiency <= 1 {
		t.Fatalf("efficiency = %v, expected >1 while the optimizer dominates", r4.Efficiency)
	}
	// …and the gain is interconnect-bound: a slow ring erodes it.
	slow := cluster(t, cfg, ClusterConfig{Workers: 4, InterconnectGBps: 1})
	if slow.TokensPerSec >= r4.TokensPerSec {
		t.Fatalf("1 GB/s ring (%v tok/s) should underperform 25 GB/s (%v tok/s)",
			slow.TokensPerSec, r4.TokensPerSec)
	}
	if slow.AllReduce <= r4.AllReduce {
		t.Fatal("slower ring should cost more all-reduce time")
	}
	// Workers=1 has no collectives.
	if r1.AllReduce != 0 || r1.AllGather != 0 || !approx.Equal(r1.Efficiency, 1) {
		t.Fatalf("single worker: %+v", r1)
	}
	if r4.AllReduce <= 0 {
		t.Fatal("missing all-reduce cost")
	}
}

func TestClusterValidate(t *testing.T) {
	cfg := testConfig(dnn.GPT2XL())
	opt := mustRun(t, SystemOptimStore, cfg)
	if _, err := RunCluster(cfg, ClusterConfig{Workers: 0, InterconnectGBps: 25}, opt, opt); err == nil {
		t.Fatal("zero workers accepted")
	}
	infeasible := *opt
	infeasible.Feasible = false
	if _, err := RunCluster(cfg, DefaultCluster(2), &infeasible, opt); err == nil {
		t.Fatal("infeasible shard accepted")
	}
}

func TestQ8StatePacksStatePages(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	if cfg.Comps() != 3 { // FP32 Adam: w + m-page + v-page
		t.Fatalf("fp32 comps = %d", cfg.Comps())
	}
	cfg.Precision = optim.Q8State
	if cfg.Comps() != 2 { // both 8-bit moments pack into one page
		t.Fatalf("q8 comps = %d", cfg.Comps())
	}
	// Less resident state → fewer NAND programs per step → faster and
	// longer-lived.
	q8 := mustRun(t, "optimstore", cfg)
	fp := mustRun(t, "optimstore", testConfig(dnn.GPT13B()))
	if q8.NANDProgramBytes >= fp.NANDProgramBytes {
		t.Fatalf("q8 programs %d >= fp32 %d", q8.NANDProgramBytes, fp.NANDProgramBytes)
	}
	if q8.OptStepTime >= fp.OptStepTime {
		t.Fatalf("q8 step %v >= fp32 %v", q8.OptStepTime, fp.OptStepTime)
	}
}

func TestSimulationRespectsRoofline(t *testing.T) {
	// The simulated step must sit between the analytic floor (it cannot
	// beat physics) and a small multiple of it (no accidental
	// serialization), across models, optimizers and precisions.
	fullWindow := func(c Config) Config {
		// The window must hold enough units per plane that pipeline
		// fill/drain is amortised, or the extrapolation inflates short
		// windows (2 units/plane ≈ 2× the steady-state rate).
		c.MaxSimUnits = 2048
		return c
	}
	cases := []Config{
		fullWindow(testConfig(dnn.GPT13B())),
		fullWindow(testConfig(dnn.GPT2XL())),
		fullWindow(func() Config { c := testConfig(dnn.GPT13B()); c.Optimizer = optim.SGD; return c }()),
		fullWindow(func() Config { c := testConfig(dnn.GPT13B()); c.Precision = optim.Q8State; return c }()),
		fullWindow(func() Config { c := testConfig(dnn.GPT13B()); c.SSD.Channels = 2; return c }()),
	}
	for i, cfg := range cases {
		opt := mustRun(t, "optimstore", cfg)
		floor := mustRoofline(t, "optimstore", cfg).Floor()
		if opt.OptStepTime < floor {
			t.Errorf("case %d: optimstore %v beat the analytic floor %v", i, opt.OptStepTime, floor)
		}
		if opt.OptStepTime > 2*floor {
			t.Errorf("case %d: optimstore %v more than 2x floor %v — pipeline stall", i, opt.OptStepTime, floor)
		}
		off := mustRun(t, "hostoffload", cfg)
		ofloor := mustRoofline(t, "hostoffload", cfg).Floor()
		if off.OptStepTime < ofloor {
			t.Errorf("case %d: offload %v beat the analytic floor %v", i, off.OptStepTime, ofloor)
		}
		if off.OptStepTime > 2*ofloor {
			t.Errorf("case %d: offload %v more than 2x floor %v", i, off.OptStepTime, ofloor)
		}
	}
}

func TestRooflineIdentifiesBottleneck(t *testing.T) {
	cfg := testConfig(dnn.GPT13B())
	// OptimStore at the default point is media-bound.
	r := mustRoofline(t, "optimstore", cfg)
	if r.Floor() != r.Media {
		t.Fatalf("optimstore floor should be media: %+v", r)
	}
	// Host offload is PCIe-bound.
	o := mustRoofline(t, "hostoffload", cfg)
	if o.Floor() != o.PCIe {
		t.Fatalf("offload floor should be PCIe: %+v", o)
	}
}

// TestFunctionalCosimulation is the capstone integration test: the real
// event-driven OptimStore pipeline (PCIe chunks, per-die reads, kernel
// scheduling, log-structured programs, GC) drives actual Adam updates via
// the compute hook, in whatever order the simulation executes them. The
// result must be bit-identical to the monolithic reference — device-level
// reordering must never change the numerics.
func TestFunctionalCosimulation(t *testing.T) {
	model := dnn.Model{Name: "tiny", Arch: dnn.Transformer, Params: 512 * 4096,
		Layers: 4, Hidden: 64, SeqLen: 128}
	cfg := testConfig(model) // 512 units, fully simulated
	cfg.MaxSimUnits = cfg.TotalUnits()
	elems := cfg.ElemsPerPage()
	n := int(cfg.TotalUnits()) * elems

	// Reference: monolithic Adam over the whole parameter vector.
	gold := make([]float32, n)
	grads := trace.Gradients(99, n)
	goldOpt := optim.New(optim.Adam, optim.Hyper{LR: 0.01})
	goldOpt.Step(gold, grads)

	// Co-simulated: per-unit optimizers applied when the engine says the
	// kernel runs.
	cosim := make([]float32, n)
	unitOpts := make([]optim.Optimizer, cfg.TotalUnits())
	var order []int64
	cfg.ComputeHook = func(u int64) {
		if unitOpts[u] == nil {
			unitOpts[u] = optim.New(optim.Adam, optim.Hyper{LR: 0.01})
		}
		lo := int(u) * elems
		unitOpts[u].Step(cosim[lo:lo+elems], grads[lo:lo+elems])
		order = append(order, u)
	}
	r := mustRun(t, "optimstore", cfg)
	if r.SimUnits != cfg.TotalUnits() {
		t.Fatalf("window truncated: %d of %d units", r.SimUnits, cfg.TotalUnits())
	}
	if int64(len(order)) != cfg.TotalUnits() {
		t.Fatalf("hook fired %d times, want %d", len(order), cfg.TotalUnits())
	}
	// The engine must NOT have executed units in plain issue order —
	// otherwise this test wouldn't prove reorder-independence.
	inOrder := true
	for i := range order {
		if order[i] != int64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Log("warning: kernel executions happened in issue order; reorder not exercised")
	}
	for i := range gold {
		//simlint:allow floateq co-simulation must agree bit-exactly
		if gold[i] != cosim[i] {
			t.Fatalf("divergence at element %d: gold=%v cosim=%v", i, gold[i], cosim[i])
		}
	}
}
