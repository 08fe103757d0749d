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

// runMallocs runs one system over a window twice and returns the heap
// objects the second run allocated, set-up included. The first run
// leaves its rig, device and engine on their shelves with record storage
// for the window, and the second takes them back, so the count is the
// same whatever ran before in the process.
func runMallocs(t testing.TB, name string, cfg Config) uint64 {
	sys, err := NewSystem(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
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
// heap objects a warm repeat of a run allocates per additional simulated
// unit, taken between a 1024- and a 4096-unit window so fixed set-up
// costs cancel. Unit, component and batch records recycle through the
// rig's freelists, and a warm repeat takes back a rig, device and engine
// whose pools already hold the window's peak of records in flight, so
// what remains is the device's lazily grown block and mapping state, a
// few dozen objects per thousand units: measured 0.044–0.045 for every
// case. The interleaved window at the default depth K = 4 keeps 75% of
// its units in flight; its bound was 0.71 while every run grew its
// pools from empty (measured 0.584–0.587 then) and is now the others'
// 0.1.
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
		{"interleaved, default depth", "interleaved", nil, 0.1},
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

// TestPipelineFixedAllocs pins the heap objects of a warm repeat of a
// whole 1024-unit optimstore run, set-up included: the device's tables,
// the layout, link and executors, and the report. The engine, device and
// rig come off their shelves, so no record pool carves a slab. Measured
// 96, bounded at 115 for 20% headroom (214 when every run built its
// engine, device and rig anew, 396 while wait queues and delay lanes
// kept arrays of pointers).
func TestPipelineFixedAllocs(t *testing.T) {
	const bound = 115
	got := runMallocs(t, "optimstore", pipelineConfig(1024))
	t.Logf("1024-unit optimstore run: %d mallocs", got)
	if got > bound {
		t.Errorf("a 1024-unit optimstore run allocates %d objects, want ≤ %d", got, bound)
	}
}

// TestWarmRepeatCarvesNoSlab pins the shelves' reuse at a large in-flight
// peak: a warm repeat of a 4096-unit interleaved point at the default
// depth, 3072 units in flight, allocates no more objects than one with
// 64-unit subgroups, 192 in flight. Every record pool, and the plane and
// batch storage records keep, is already sized for the peak, so neither
// run carves a slab; one that did would add an object per slab.
func TestWarmRepeatCarvesNoSlab(t *testing.T) {
	const window = 4096
	deep := runMallocs(t, "interleaved", pipelineConfig(window))
	cfg := pipelineConfig(window)
	cfg.InterleaveDepth = window / 64
	shallow := runMallocs(t, "interleaved", cfg)
	t.Logf("warm %d-unit interleaved run: %d mallocs at the default depth, %d with 64-unit subgroups",
		window, deep, shallow)
	if deep > shallow {
		t.Errorf("a warm repeat at the default depth allocates %d objects, %d more than with 64-unit subgroups",
			deep, deep-shallow)
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
