// Package bench measures the simulation kernel's throughput and
// maintains the repository's benchmark trajectory (the committed
// BENCH_*.json snapshots).
//
// Two kinds of benchmark run here. Kernel microbenchmarks time one hot
// path each — schedule+fire, batch schedule, pooled Resource.Use — with
// a known number of simulated events per operation, so events/sec and
// ns/event fall out of testing.Benchmark's wall-clock directly. The
// sweep benchmarks run the canonical channel×system sweep (8 channel
// counts × 5 systems, the cmd/sweep grid), counting events from the
// deterministic run summary; the search benchmark runs the roofline-
// pruned autotuner (internal/search) over its default grid, counting
// simulated design points. Every measurement is best-of-three, each run
// started from a freshly collected heap, to shave scheduler, GC, and
// page-cache noise on small CI machines.
//
// The snapshot file is the regression gate's contract: `make bench`
// writes it, `make verify` re-measures and fails when any bench falls
// more than the threshold below its committed events/sec (Compare).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/units"
)

// Schema identifies the snapshot layout; bump when fields change
// incompatibly.
const Schema = "repro-bench/v1"

// Measure is one benchmark's normalized result. EventsPerSec is the
// regression-gated figure; the rest contextualize it. For the search
// benchmark an "event" is one simulated design point, and PrunedFraction
// records how much of the grid the analytic bounds rejected.
type Measure struct {
	Name           string  `json:"name"`
	EventsPerOp    int64   `json:"events_per_op"`
	NsPerOp        float64 `json:"ns_per_op"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	PrunedFraction float64 `json:"pruned_fraction,omitempty"`
}

// Snapshot is the on-disk BENCH_*.json document.
type Snapshot struct {
	Schema  string    `json:"schema"`
	Note    string    `json:"note"`
	Go      string    `json:"go"`
	PrePR   Measure   `json:"pre_pr"`
	Benches []Measure `json:"benches"`
}

// PrePR is the pre-overhaul BenchmarkSweep32 measurement this PR's
// 3× acceptance bar is judged against: the container/heap kernel with
// closure-per-event scheduling and eager whole-device FTL tables ran
// the 32-job sweep in ~220 ms (best of several, after warm-up) for
// 44320 simulated events — ~200k events/sec, ~12.4 heap allocations
// per event. Recorded here once so the ratio survives in the snapshot.
var PrePR = Measure{
	Name:           "sweep32",
	EventsPerOp:    44320,
	NsPerOp:        220e6,
	EventsPerSec:   200000,
	NsPerEvent:     5000,
	AllocsPerEvent: 12.4,
}

// snapshotNote documents the methodology inside the artifact itself.
const snapshotNote = "events/sec of the simulation kernel: microbenchmarks time one hot path " +
	"with a fixed event count per op; sweep32 runs the canonical channel-by-system sweep " +
	"(8 channel counts x 5 systems, GPT-13B, MaxSimUnits=128; the name predates the " +
	"fifth system) single-threaded and counts " +
	"events from the run summary; search runs the roofline-pruned autotuner over the " +
	"default 5184-point grid (GPT-13B, MaxSimUnits=128, budget 16) single-threaded, " +
	"counting simulated design points as events and recording the pruned fraction. " +
	"Best of three testing.Benchmark runs, each from a collected heap. pre_pr is the " +
	"pre-overhaul kernel's sweep32 measurement, kept for the trajectory."

// sweepJobs builds the canonical channel×system sweep workload, the grid
// cmd/sweep -dim channels produces.
func sweepJobs(traced bool) []runner.Job[*core.Report] {
	channels := []int{1, 2, 3, 4, 6, 8, 12, 16}
	var jobs []runner.Job[*core.Report]
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

// sweepEvents counts the simulated events of one full sweep via a
// deterministic sequential run.
func sweepEvents(traced bool) (int64, error) {
	results := runner.Run(1, sweepJobs(traced))
	if err := runner.FirstErr(results); err != nil {
		return 0, err
	}
	return runner.Summarize(results).Events, nil
}

// measure runs fn under testing.Benchmark three times — each from a
// freshly collected heap — and folds the fastest run into a Measure,
// attributing eventsPerOp simulated events to each benchmark operation.
// Best-of-N is the right estimator here: the quantity being gated is
// the kernel's speed, and every slowdown source on a small CI box (GC
// debt from a previous bench, scheduler noise, cold page cache) only
// ever adds time.
func measure(name string, eventsPerOp int64, fn func(b *testing.B)) Measure {
	var best testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		runtime.GC()
		if r := testing.Benchmark(fn); i == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	nsPerOp := float64(best.NsPerOp())
	nsPerEvent := nsPerOp / float64(eventsPerOp)
	return Measure{
		Name:           name,
		EventsPerOp:    eventsPerOp,
		NsPerOp:        nsPerOp,
		EventsPerSec:   float64(sim.Second) / nsPerEvent,
		NsPerEvent:     nsPerEvent,
		AllocsPerEvent: float64(best.AllocsPerOp()) / float64(eventsPerOp),
	}
}

// RunAll measures every benchmark and returns them in canonical order.
func RunAll() ([]Measure, error) {
	const batchSize = 64
	var ms []Measure

	ms = append(ms, measure("kernel/schedule-fire", 1, func(b *testing.B) {
		e := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(1, fn)
			e.Run()
		}
	}))

	ms = append(ms, measure("kernel/schedule-batch", batchSize, func(b *testing.B) {
		e := sim.NewEngine()
		fn := func() {}
		items := make([]sim.Timed, batchSize)
		for i := range items {
			items[i] = sim.Timed{Delay: units.Nanos(float64(i % 7)), Fn: fn}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleBatch(items)
			e.Run()
		}
	}))

	ms = append(ms, measure("kernel/resource-use", 1, func(b *testing.B) {
		e := sim.NewEngine()
		r := sim.NewResource(e, "r", 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Use(1, nil)
			e.Run()
		}
	}))

	for _, traced := range []bool{false, true} {
		name := "sweep32"
		if traced {
			name = "sweep32-traced"
		}
		events, err := sweepEvents(traced)
		if err != nil {
			return nil, fmt.Errorf("bench: %s pre-run: %w", name, err)
		}
		traced := traced
		ms = append(ms, measure(name, events, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results := runner.Run(1, sweepJobs(traced))
				if err := runner.FirstErr(results); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	pre, err := searchRun()
	if err != nil {
		return nil, fmt.Errorf("bench: search pre-run: %w", err)
	}
	m := measure("search", int64(pre.Stats.Evaluated), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := searchRun(); err != nil {
				b.Fatal(err)
			}
		}
	})
	m.PrunedFraction = pre.Stats.PrunedFraction()
	ms = append(ms, m)
	return ms, nil
}

// searchRun executes the canonical autotune workload: the default
// design-space grid over GPT-13B at the sweep32 simulation window, a
// 16-simulation budget, sequential. Its "events" are simulated design
// points, so EventsPerSec reads as configs-evaluated/sec — end-to-end
// cost including grid enumeration, bound pricing, hashing, and pruning.
func searchRun() (*search.Result, error) {
	cfg := core.DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 128
	return search.Run(cfg, search.DefaultSpace(), search.Options{Budget: 16, Parallel: 1})
}

// NewSnapshot wraps measurements into the canonical document.
func NewSnapshot(ms []Measure) Snapshot {
	return Snapshot{
		Schema:  Schema,
		Note:    snapshotNote,
		Go:      runtime.Version(),
		PrePR:   PrePR,
		Benches: ms,
	}
}

// Load reads a snapshot file.
func Load(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if s.Schema != Schema {
		return s, fmt.Errorf("bench: %s has schema %q, want %q", path, s.Schema, Schema)
	}
	return s, nil
}

// Write stores a snapshot with a trailing newline, stable field order.
func Write(path string, s Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare returns one message per benchmark whose fresh events/sec fell
// more than threshold (a fraction, e.g. 0.15) below the committed
// snapshot's. Benches present on only one side are ignored — adding or
// retiring a benchmark is not a regression.
func Compare(committed Snapshot, fresh []Measure, threshold float64) []string {
	byName := make(map[string]Measure, len(committed.Benches))
	for _, m := range committed.Benches {
		byName[m.Name] = m
	}
	var msgs []string
	for _, m := range fresh {
		old, ok := byName[m.Name]
		if !ok || old.EventsPerSec <= 0 {
			continue
		}
		floor := old.EventsPerSec * (1 - threshold)
		if m.EventsPerSec < floor {
			msgs = append(msgs, fmt.Sprintf(
				"%s: %.0f events/sec is %.1f%% below committed %.0f (floor %.0f)",
				m.Name, m.EventsPerSec, 100*(1-m.EventsPerSec/old.EventsPerSec),
				old.EventsPerSec, floor))
		}
	}
	sort.Strings(msgs)
	return msgs
}
