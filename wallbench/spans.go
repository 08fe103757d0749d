package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/tracing"
	"repro/internal/units"
)

// spans records host-time spans around the benchmark's own calls into the
// program's public functions. It keeps them in memory for the Chrome trace
// and sums them per name for the span metrics. A nil *spans records
// nothing, so untraced runs pay one nil check per call site.
type spans struct {
	origin time.Time
	trace  *tracing.Trace
	sum    map[string]time.Duration
	count  map[string]int
}

func newSpans(label string) *spans {
	return &spans{
		origin: time.Now(),
		trace:  tracing.New(label),
		sum:    map[string]time.Duration{},
		count:  map[string]int{},
	}
}

// start opens a span on a track; calling the returned function closes it.
func (s *spans) start(track, name string) func() {
	if s == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		t1 := time.Now()
		s.trace.Span(track, name, s.at(t0), s.at(t1))
		s.sum[name] += t1.Sub(t0)
		s.count[name]++
	}
}

func (s *spans) at(t time.Time) sim.Time {
	return units.Nanos(float64(t.Sub(s.origin).Nanoseconds()))
}

// mean returns the mean duration of the spans with a name.
func (s *spans) mean(name string) time.Duration {
	if s.count[name] == 0 {
		return 0
	}
	return s.sum[name] / time.Duration(s.count[name])
}

// writeChrome writes the recorded spans as Chrome trace_event JSON.
func (s *spans) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracing.WriteChrome(f, s.trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildAndPreload repeats, under spans, the device set-up every
// device-backed system performs before simulating: ssd.NewDevice, then
// layout.New, SetPlaneMapper and one Preload per page of the window.
func (s *spans) buildAndPreload(cfg core.Config) error {
	done := s.start("layers", "ssd.build")
	dev := ssd.NewDevice(sim.NewEngine(), cfg.SSD)
	done()
	done = s.start("layers", "ssd.preload")
	defer done()
	lay, err := layout.New(dev.Geometry(), cfg.Comps(), cfg.SimUnits(), cfg.Layout)
	if err != nil {
		return err
	}
	dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		dev.Preload(lpa)
	}
	return nil
}

// wafSteps is the steady-state WAF measurement length search.Run uses by
// default.
const wafSteps = 3

// measureWAF times core.MeasureUpdateWAF for one (cell, over-provisioning)
// pair, the GC-heavy overwrite path the tuner runs once per pair.
func (s *spans) measureWAF(cell nand.CellType, overProvision float64) error {
	defer s.start("layers", "ssd.waf")()
	_, err := core.MeasureUpdateWAF(cell, overProvision, wafSteps)
	return err
}

// kernelIters is the length of one timed kernel loop; kernelReps loops
// run and each metric reports their median.
const (
	kernelIters = 200_000
	kernelReps  = 5
)

// kernelLoops times the two event-kernel hot paths the BENCH_* snapshots
// gate (schedule+fire, and a pooled Resource.Use) and returns their
// median nanoseconds per event.
func (s *spans) kernelLoops() (scheduleFire, resourceUse float64) {
	fn := func() {}
	var sf, ru []float64
	for rep := 0; rep < kernelReps; rep++ {
		e := sim.NewEngine()
		sf = append(sf, s.perIter("sim.schedule_fire", func() {
			for i := 0; i < kernelIters; i++ {
				e.Schedule(1, fn)
				e.Run()
			}
		}))
		r := sim.NewResource(e, "r", 1)
		ru = append(ru, s.perIter("sim.resource_use", func() {
			for i := 0; i < kernelIters; i++ {
				r.Use(1, nil)
				e.Run()
			}
		}))
	}
	return median(sf), median(ru)
}

// perIter times one kernel loop and returns its nanoseconds per iteration.
func (s *spans) perIter(name string, loop func()) float64 {
	done := s.start("kernel", name)
	t0 := time.Now()
	loop()
	d := time.Since(t0)
	done()
	return float64(d.Nanoseconds()) / kernelIters
}
