package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/optim"
	"repro/internal/tracing"
)

// tracedRun runs a named system with a fresh trace installed and returns
// both the report and the recorded trace.
func tracedRun(t *testing.T, name string, cfg Config) (*Report, *tracing.Trace) {
	t.Helper()
	tr := tracing.New(name)
	cfg.Trace = tr
	return mustRun(t, name, cfg), tr
}

// TestTracedRunMatchesUntraced pins the zero-interference contract: the
// tracer only observes, so a traced run must produce exactly the report
// an untraced run does — same event count, same simulated time, same
// utilizations.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range []string{"optimstore", "hostoffload", "ctrlisp"} {
		plain := mustRun(t, name, testConfig(dnn.BERTLarge()))
		traced, tr := tracedRun(t, name, testConfig(dnn.BERTLarge()))
		if tr.Len() == 0 {
			t.Fatalf("%s: traced run recorded nothing", name)
		}
		if plain.SimTime != traced.SimTime || plain.SimEvents != traced.SimEvents {
			t.Errorf("%s: traced run diverged: time %v vs %v, events %d vs %d",
				name, plain.SimTime, traced.SimTime, plain.SimEvents, traced.SimEvents)
		}
		//simlint:allow floateq tracing must not perturb results at all: bit-exact by contract
		if plain.LinkUtil != traced.LinkUtil || plain.BusUtil != traced.BusUtil {
			t.Errorf("%s: traced run changed utilization: link %v vs %v, bus %v vs %v",
				name, plain.LinkUtil, traced.LinkUtil, plain.BusUtil, traced.BusUtil)
		}
	}
}

// phaseNames collects the distinct span names on the phase track.
func phaseNames(tr *tracing.Trace) map[string]int {
	names := map[string]int{}
	for _, e := range tr.Events() {
		if e.Kind == tracing.KindSpan && e.Track == "phase" {
			names[e.Name]++
		}
	}
	return names
}

func TestOptimStorePhaseSpans(t *testing.T) {
	r, tr := tracedRun(t, "optimstore", testConfig(dnn.BERTLarge()))
	names := phaseNames(tr)
	for _, want := range []string{"grad-transfer", "read", "kernel", "program", "writeback"} {
		if names[want] == 0 {
			t.Errorf("no %q phase spans (got %v)", want, names)
		}
	}
	if int64(names["kernel"]) < r.SimUnits {
		t.Errorf("kernel spans %d < simulated units %d", names["kernel"], r.SimUnits)
	}
}

func TestOptimStoreLambReduceSpans(t *testing.T) {
	cfg := testConfig(dnn.BERTLarge())
	cfg.Optimizer = optim.LAMB
	_, tr := tracedRun(t, "optimstore", cfg)
	names := phaseNames(tr)
	if names["lamb-reduce"] == 0 {
		t.Errorf("no lamb-reduce spans under LAMB (got %v)", names)
	}
}

func TestHostOffloadAndCtrlISPPhaseSpans(t *testing.T) {
	_, tr := tracedRun(t, "hostoffload", testConfig(dnn.BERTLarge()))
	names := phaseNames(tr)
	for _, want := range []string{"read", "gpu-batch", "writeback"} {
		if names[want] == 0 {
			t.Errorf("hostoffload: no %q phase spans (got %v)", want, names)
		}
	}
	_, tr = tracedRun(t, "ctrlisp", testConfig(dnn.BERTLarge()))
	names = phaseNames(tr)
	for _, want := range []string{"grad-transfer", "read-pull", "ctrl-kernel", "program-push"} {
		if names[want] == 0 {
			t.Errorf("ctrl-isp: no %q phase spans (got %v)", want, names)
		}
	}
}

func TestAnalyticSystemsEmitSyntheticSpans(t *testing.T) {
	r, tr := tracedRun(t, "gpuresident", testConfig(dnn.BERTLarge()))
	names := phaseNames(tr)
	if names["update"] != 1 {
		t.Fatalf("gpu-resident: update spans = %d, want 1 (%v)", names["update"], names)
	}
	if got := tr.BusyTime("phase", "update"); got != r.OptStepTime {
		t.Errorf("update span %v != OptStepTime %v", got, r.OptStepTime)
	}

	cfg := testConfig(dnn.BERTLarge())
	ctr := tracing.New("checkpoint")
	cfg.Trace = ctr
	cr, err := Checkpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctr.BusyTime("phase", "ckpt/host-stream"); got != cr.HostStreamTime {
		t.Errorf("host-stream span %v != %v", got, cr.HostStreamTime)
	}
	if got := ctr.BusyTime("phase", "ckpt/in-storage-copy"); got != cr.InStorageCopyTime {
		t.Errorf("in-storage-copy span %v != %v", got, cr.InStorageCopyTime)
	}
}

// TestTraceReconcilesWithReportedLinkUtil is the end-to-end form of the
// acceptance invariant: the PCIe hold spans recorded in the trace, summed
// per direction and divided by the simulated span, must reproduce the
// report's LinkUtil (the busier direction) within 1e-9.
func TestTraceReconcilesWithReportedLinkUtil(t *testing.T) {
	r, tr := tracedRun(t, "optimstore", testConfig(dnn.BERTLarge()))
	var best float64
	seen := false
	for _, track := range tr.Tracks() {
		if !strings.HasSuffix(track, "/down") && !strings.HasSuffix(track, "/up") {
			continue
		}
		seen = true
		u := float64(tr.BusyTime(track, "hold")) / float64(r.SimTime)
		if u > best {
			best = u
		}
	}
	if !seen {
		t.Fatalf("no PCIe tracks in trace: %v", tr.Tracks())
	}
	if math.Abs(best-r.LinkUtil) > 1e-9 {
		t.Errorf("trace-derived link util %v, report says %v", best, r.LinkUtil)
	}
}

// TestTracedODPUnitNames pins the tracks of a traced OptimStore run's
// on-die processing units: one per die, "ch<c>/die<d>/odp", the names
// they have always traced under. The rig builds the units in one slice
// and formats their names only when the engine traces.
func TestTracedODPUnitNames(t *testing.T) {
	cfg := testConfig(dnn.BERTLarge())
	cfg.SSD.Channels, cfg.SSD.DiesPerChannel = 2, 2
	_, tr := tracedRun(t, "optimstore", cfg)
	got := map[string]bool{}
	for _, e := range tr.Events() {
		if strings.HasSuffix(e.Track, "/odp") {
			got[e.Track] = true
		}
	}
	want := []string{"ch0/die0/odp", "ch0/die1/odp", "ch1/die0/odp", "ch1/die1/odp"}
	for _, track := range want {
		if !got[track] {
			t.Errorf("no activity on %s", track)
		}
	}
	if len(got) != len(want) {
		t.Errorf("ODP tracks %v, want exactly %v", got, want)
	}
}
