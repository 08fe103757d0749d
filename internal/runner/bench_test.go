package runner

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/tracing"
)

// sweep32 builds the benchmark workload: a sweep of 8 channel counts ×
// 5 systems (40 independent simulation jobs; the name predates the fifth
// system and is kept so the snapshot trajectory stays comparable), the
// grid shape
// cmd/sweep produces. Every job constructs its own System and Engine.
// When traced, each job records into a private tracing.Trace, the shape
// cmd/sweep -trace runs.
func sweep32Opt(traced bool) []Job[*core.Report] {
	channels := []int{1, 2, 3, 4, 6, 8, 12, 16}
	var jobs []Job[*core.Report]
	for _, ch := range channels {
		for _, name := range core.SystemNames() {
			ch, name := ch, name
			jobs = append(jobs, func() (*core.Report, error) {
				cfg := core.DefaultConfig(dnn.GPT13B())
				cfg.MaxSimUnits = 128
				cfg.SSD.Channels = ch
				if traced {
					cfg.Trace = tracing.New(name)
				}
				sys, err := core.NewSystem(name, cfg)
				if err != nil {
					return nil, err
				}
				return sys.Run()
			})
		}
	}
	return jobs
}

func sweep32() []Job[*core.Report] { return sweep32Opt(false) }

// BenchmarkSweep32 measures wall-clock of the channel×system sweep at several
// pool widths. On an N-core host the workers=N case should approach N×
// the workers=1 throughput (the jobs share nothing), demonstrating
// near-linear scaling; compare the ns/op of the sub-benchmarks.
func BenchmarkSweep32(b *testing.B) {
	// Measure widths up to the machine's CPU count — beyond it the pool
	// only adds scheduler contention, not parallelism.
	var widths []int
	for _, w := range []int{1, 2, 4, 8, runtime.NumCPU()} {
		if w <= runtime.NumCPU() && (len(widths) == 0 || w > widths[len(widths)-1]) {
			widths = append(widths, w)
		}
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			jobs := sweep32()
			for i := 0; i < b.N; i++ {
				results := Run(w, jobs)
				if err := FirstErr(results); err != nil {
					b.Fatal(err)
				}
				if len(results) != len(jobs) {
					b.Fatalf("got %d results for %d jobs", len(results), len(jobs))
				}
			}
			s := Summarize(Run(w, jobs))
			b.ReportMetric(float64(s.Events)/float64(len(jobs)), "sim-events/job")
		})
	}
}

// BenchmarkSweep32Traced is BenchmarkSweep32 with event tracing enabled
// on every job — the cost of *recording* (the in-memory event log each
// resource transition appends to), as opposed to the disabled-tracer cost
// that BenchmarkSweep32 and the ≤2% regression budget cover. Compare the
// two to see what -trace actually costs a sweep.
func BenchmarkSweep32Traced(b *testing.B) {
	for _, w := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			jobs := sweep32Opt(true)
			for i := 0; i < b.N; i++ {
				results := Run(w, jobs)
				if err := FirstErr(results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverhead measures the pool's fixed cost on empty jobs — the
// price of ordering and panic capture when jobs do no work.
func BenchmarkOverhead(b *testing.B) {
	jobs := make([]Job[int], 256)
	for i := range jobs {
		jobs[i] = func() (int, error) { return 0, nil }
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(0, jobs)
	}
}
