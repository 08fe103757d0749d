package core

import (
	"runtime"
	"testing"

	"repro/internal/dnn"
)

// pipelineConfig is the window the allocation pin and the pipeline
// benchmark simulate: GPT-13B's default configuration on 4 channels.
func pipelineConfig(window int64) Config {
	cfg := DefaultConfig(dnn.GPT13B())
	cfg.SSD.Channels = 4
	cfg.MaxSimUnits = window
	return cfg
}

// runMallocs runs one system over a window and returns the heap objects
// the whole run allocated, set-up included.
func runMallocs(t testing.TB, name string, cfg Config) uint64 {
	sys, err := NewSystem(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPipelineAllocsPerUnit pins the allocation-free unit pipelines: the
// heap objects a run allocates per additional simulated unit, taken
// between a 1024- and a 4096-unit window so fixed set-up costs cancel.
// Unit, component and batch records recycle through the rig's freelists,
// so what remains is per-chunk and per-batch state, a few dozen objects
// per thousand units.
//
// The interleaved window holds 3·⌈units/K⌉ units in flight, 75% of the
// window at the default K = 4, and every record pool (units, device ops,
// resource requests, events) grows to that peak once. Its default-depth
// pin therefore bounds pool warm-up, not the steady state; with K scaled
// to the window the in-flight peak is fixed and the steady-state bound
// applies as it does to the other systems.
func TestPipelineAllocsPerUnit(t *testing.T) {
	cases := []struct {
		name, system string
		depthFor     func(window int64) int // InterleaveDepth; nil keeps the default
		bound        float64
	}{
		{"optimstore", "optimstore", nil, 0.1},
		{"ctrlisp", "ctrlisp", nil, 0.1},
		{"hostoffload", "hostoffload", nil, 0.1},
		{"interleaved, 64-unit subgroups", "interleaved", func(w int64) int { return int(w / 64) }, 0.1},
		{"interleaved, default depth", "interleaved", nil, 16},
	}
	for _, c := range cases {
		var mallocs [2]uint64
		for i, window := range []int64{1024, 4096} {
			cfg := pipelineConfig(window)
			if c.depthFor != nil {
				cfg.InterleaveDepth = c.depthFor(window)
			}
			mallocs[i] = runMallocs(t, c.system, cfg)
		}
		per := (float64(mallocs[1]) - float64(mallocs[0])) / (4096 - 1024)
		t.Logf("%s: %d → %d mallocs, %.3f per unit", c.name, mallocs[0], mallocs[1], per)
		if per > c.bound {
			t.Errorf("%s allocates %.3f objects per simulated unit, want ≤ %v", c.name, per, c.bound)
		}
	}
}

// BenchmarkPipeline runs each simulated system over a 2048-unit window
// and reports host time and allocations per simulated unit.
func BenchmarkPipeline(b *testing.B) {
	const window = 2048
	for _, name := range simulatedSystems {
		b.Run(name, func(b *testing.B) {
			cfg := pipelineConfig(window)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(name, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			units := float64(b.N) * window
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/units, "ns/unit")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/units, "allocs/unit")
		})
	}
}
