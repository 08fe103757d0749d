package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/optim"
	"repro/internal/sim"
)

// phaseRecorder is a sim.Tracer that writes every phase-track span as a
// text line, in emission order; resource tracks, instants and counters
// are ignored.
type phaseRecorder struct {
	b *strings.Builder
}

func (p phaseRecorder) Span(track, name string, start, end sim.Time) {
	if track == phaseTrack {
		fmt.Fprintf(p.b, "%s %d %d\n", name, start, end)
	}
}

func (phaseRecorder) Instant(string, string, sim.Time)          {}
func (phaseRecorder) Counter(string, string, sim.Time, float64) {}

// pipelineScenario is one traced configuration of the golden pipeline
// trace.
type pipelineScenario struct {
	name    string
	systems []string
	mutate  func(*Config)
}

// simulatedSystems are the systems whose step is a simulated per-unit
// pipeline (gpuresident is analytic).
var simulatedSystems = []string{"optimstore", "hostoffload", "interleaved", "ctrlisp"}

func pipelineScenarios() []pipelineScenario {
	return []pipelineScenario{
		{"adam colocated, 1 channel", simulatedSystems, func(c *Config) { c.SSD.Channels = 1 }},
		{"adam colocated, 2 channels, 64 KiB chunks", simulatedSystems, func(c *Config) {
			c.SSD.Channels = 2
			c.TransferChunkBytes = 64 << 10
		}},
		{"lamb, 2 channels", simulatedSystems, func(c *Config) {
			c.SSD.Channels = 2
			c.Optimizer = optim.LAMB
		}},
		{"linear layout, 2 channels", simulatedSystems, func(c *Config) {
			c.SSD.Channels = 2
			c.Layout = layout.Linear
		}},
		{"split layout, lamb, 2 channels", simulatedSystems, func(c *Config) {
			c.SSD.Channels = 2
			c.Layout = layout.SplitByComponent
			c.Optimizer = optim.LAMB
		}},
		{"adama accum 4, 2 channels", simulatedSystems, func(c *Config) {
			c.SSD.Channels = 2
			c.Optimizer = optim.AdamA
			c.GradAccum = 4
		}},
		{"interleave depth 64, 1 channel", []string{"interleaved"}, func(c *Config) {
			c.SSD.Channels = 1
			c.InterleaveDepth = 64
		}},
	}
}

// tracePipeline runs one system with a phase recorder and a compute hook
// installed, and returns its phase spans, hook calls and totals as text.
func tracePipeline(t *testing.T, name string, cfg Config) string {
	t.Helper()
	var b strings.Builder
	cfg.Trace = phaseRecorder{&b}
	cfg.ComputeHook = func(u int64) { fmt.Fprintf(&b, "hook %d\n", u) }
	r := mustRun(t, name, cfg)
	fmt.Fprintf(&b, "sim_time %d sim_events %d\n", r.SimTime, r.SimEvents)
	return b.String()
}

// TestPipelineTraceGolden pins the event order of every simulated
// pipeline byte for byte: each phase span (name, start, end) in emission
// order, each ComputeHook call, and the window's simulated time and event
// count, over small windows that exercise the LAMB two-pass kernel,
// mis-laid-out components, AdamA accumulation and an interleaved window
// narrower than a batch.
// Regenerate deliberately with
// UPDATE_GOLDEN=1 go test -run TestPipelineTraceGolden ./internal/core/.
func TestPipelineTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range pipelineScenarios() {
		for _, name := range sc.systems {
			cfg := DefaultConfig(dnn.GPT13B())
			cfg.MaxSimUnits = 32
			sc.mutate(&cfg)
			fmt.Fprintf(&b, "## %s: %s\n", sc.name, name)
			b.WriteString(tracePipeline(t, name, cfg))
		}
	}
	got := b.String()

	const path = "testdata/pipeline_trace.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("pipeline trace diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pipeline trace length %d lines, want %d", len(gl), len(wl))
	}
}
