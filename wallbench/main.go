// Command wallbench is the repository's end-to-end benchmark. It measures
// the figure of merit of the ROADMAP: host wall-clock time per simulated
// design point, end to end and layer by layer, on four workloads, and it
// checks every output it times.
//
// Usage, from the root of the repository:
//
//	bash wallbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module from the repository's sources (it imports
// the program's internal packages through a replace directive) and runs
// it. BENCHMARK.json at the root names the command, the workloads, the
// metrics and their regression bounds.
//
// # Workloads
//
// Each run is one process with one client in a closed loop: an op starts
// when the previous one returns, through runner.Run(1, …) as
// cmd/sweep -parallel 1 does. Set-up builds the inputs from --seed and
// runs every warm-up point once, untimed. The timed phase then runs ops
// for --seconds, and past it until 100 ops have run.
//
//   - sweep: one op is one design point of the cmd/sweep grid, channels
//     {1,2,3,4,6,8,12,16} × all five systems, GPT-13B, MaxSimUnits=128.
//     The timed ops are passes over the 40 points, each pass in an order
//     the seed permutes. Short windows make device build and preload
//     (ssd) dominate, and the points repeat, so reuse across ops shows.
//   - steady: the same shape over channels {4,16} × {hostoffload,
//     interleaved, ctrlisp, optimstore} at MaxSimUnits=8192. The event
//     kernel and steady-state FTL reads and programs do the work, and
//     preload is under 10%, so a build-path gain should not move it.
//   - mixed: invariant.Configs(seed, …); the first 200 are the warm-up
//     and the rest run once each, so no config repeats and caching cannot
//     help. Systems round-robin over all five, checkpoint policies cycle
//     none/inplace/hostpull, and 20 of every 25 points carry the tier-5
//     fault storm (seed 7i+1, pl 2000/s, df 1000/s, ecc 4000/s, horizon
//     5 ms). It covers every optimizer, the layouts, layer-wise overlap,
//     small devices, and recovery, retirement and relocation in ssd.
//   - tune: one op is one search.Run over DefaultSpace (5184 points) with
//     MaxSimUnits=256, budget 16 and one worker; op i tunes model i mod 4
//     of {GPT-6.7B, LLaMA-7B, GPT-13B, GPT-30B} in a seeded pass order.
//     It is the only workload that runs search: bound pricing,
//     CanonicalHash, pruning and the GC-heavy MeasureUpdateWAF. The
//     budget is half that of make tier6 so that a 20 s run holds the 100
//     ops its p90 needs.
//
// # End-to-end metrics (--trace 0)
//
// All are host time, not simulated time, given at a reference host speed
// (probe.go): after every batch of timed ops, and after every set-up, a
// fixed probe that imports nothing from the program runs outside the
// timing, and each time is scaled by probeRef / the probe's time right
// after it. A shared VM's speed drifts by 20–50% over minutes, and ten
// runs of one commit at 20 s spread up to 28% as measured. run.sh also
// runs the benchmark with GODEBUG=madvdontneed=0, which removes the page
// faults whose cost drifted most. The times as measured, the probe's
// median and op_ms_p99 (when a run has the 1000 ops it needs) are printed
// above the result.
//
//   - ops_per_s (1/s, higher is better): ops completed per second of op
//     time.
//   - op_ms_p50, op_ms_p90 (ms): op latency percentiles. A percentile is
//     reported only with at least 10 samples beyond it.
//   - alloc_mb_per_op (MB): heap bytes allocated per op over the timed
//     phase (MemStats.TotalAlloc), which repeats to within a pass.
//   - setup_s (s): input generation plus warm-up, the median of five
//     set-ups; the first starts at entry to main.
//
// The regression bounds in BENCHMARK.json are at least twice the spread
// (interquartile range over median) of ten runs with different seeds.
// The scaled times spread 1–8% in two sets of ten runs per workload, and
// up to 12.5% in a busier hour, on the p90 of mixed and tune: the probe
// tracks the median op better than the heavy ones. So every time takes
// the largest bound the gate allows, 25%; alloc_mb_per_op, whose spread
// is under 2%, takes 10%.
//
// Every run also prints, above the result, numbers that must not move
// with speed-only changes: sim_digest (FNV-64a over %+v of every warm-up
// report or frontier point, in order), the deterministic counts below,
// and step_err_pct on sweep, steady and tune: the mean |windowed step −
// reference step| / reference step over the points a user reads (every
// grid point, or every frontier point), where the reference is the same
// point simulated with a 16384-unit window after the timed phase. It is
// the window's error against the simulator's own converged answer; the
// model has no hardware validation. mixed has no such reference, because
// its devices are sized to its short windows.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates one-second slices, untraced and traced, over
// --seconds, and reports:
//
//   - <layer>.cpu_ms_per_op for sim, nand, ssd, core and runtime, from
//     runtime/pprof CPU profiles of the traced slices, and
//     <layer>.alloc_mb_per_op for sim, nand, ssd and core, from the
//     difference of the allocation profiles on either side of each.
//     profile.go decodes the profiles. A sample is charged to its innermost
//     repro/internal/<layer> frame, so allocation and GC assists count
//     toward the layer that caused them; GC workers count as runtime. The
//     table printed above the result lists every layer, including layout,
//     host, odp, search, fault, invariant, runner and the benchmark's own
//     loop; layers that are idle, or take a sample or two, on some workload
//     stay out of the result, where a time that is zero on every run would
//     read as not measured.
//   - Host-time spans from this module's own calls into the program,
//     written with tracing.WriteChrome to <outdir>/traces/<workload>-seed<n>.json:
//     invariant.check_us (one audit), ssd.build_ms (ssd.NewDevice),
//     ssd.preload_ms (layout.New, SetPlaneMapper and Preload over the
//     window), each over every device-backed design point of the warm-up;
//     ssd.waf_ms (core.MeasureUpdateWAF per cell and over-provisioning
//     the workload prices); sim.schedule_fire_ns and sim.resource_use_ns
//     (the event-kernel loops the BENCH_* snapshots gate).
//   - trace_overhead_frac: 1 − ops_per_s of the traced slices / ops_per_s
//     of the untraced ones.
//   - Counts, printed on every run and deterministic for a workload and
//     seed: sim.events_per_op, ssd.waf_mean, fault.fired_per_op,
//     search.pruned_frac, search.evaluated_per_op, search.memo_hits_per_op,
//     search.frontier_size; with sim.ns_per_event, runtime.gc_cpu_frac
//     and runtime.peak_rss_mb, which are measured.
//
// Which end-to-end metric each layer metric should move:
//
//   - ssd.* and the build and preload spans: op_ms_p50, ops_per_s and
//     alloc_mb_per_op on sweep and mixed; almost nothing on steady.
//   - sim.*: op_ms_p50 on steady; at most 15% of sweep.
//   - core, layout, odp and host: steady (the pipelines) and tune (bounds
//     and hashing).
//   - search.* and ssd.waf_ms: tune only. fault.*: mixed only.
//   - runtime.*: alloc_mb_per_op everywhere, most on tune.
//   - step_err_pct moves only with the window model (ROADMAP item 1), on
//     sweep and not on steady. A speed-only change leaves sim_digest, the
//     counts and step_err_pct identical.
//
// # Correctness
//
// Every report is audited with the invariant registry outside its op's
// timing, and every sweep and steady report and tune result is compared
// with the warm-up outcome of the same point. An op fails on an error or
// panic, a violation, or a mismatch; failed ops are counted against
// attempted ones and the run goes on. The roofline sandwich is skipped on
// reports whose fault counters are nonzero, because its floor is
// fault-free; audit_skipped counts the skips and the points where it
// would have tripped are listed on stderr for a follow-up in
// internal/invariant.
//
// # Follow-ups
//
// internal/bench and cmd/bench still hold the events/sec gate that make
// bench-gate and CI run against BENCH_010.json; its sweep32 and search
// benchmarks duplicate the sweep and tune workloads here. Rewire that
// gate to BENCHMARK.json and delete them; delete internal/runner's
// BenchmarkSweep32, which asserts 32 results for 40 jobs; and run every
// Benchmark* at -benchtime 1x in make verify.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/units"
)

func main() {
	entry := time.Now()
	var (
		name    = flag.String("workload", "", "workload: sweep, steady, mixed or tune")
		seed    = flag.Int64("seed", 1, "seed the inputs are made from")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		outDir  = flag.String("outdir", ".bench_build", "directory the traced run writes its Chrome trace under")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wallbench --workload sweep|steady|mixed|tune --seed N --seconds S --trace 0|1\n\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-7s %s\n", w.name, w.why)
		}
		fmt.Fprintf(os.Stderr, "\nThe last line of stdout is the JSON result; see the package documentation for the metrics.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	w, ok := workloadNamed(*name)
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir, entry)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
}

// A metric is one named value with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a run prints: human-readable lines, then one JSON line.
type result struct {
	lines     []string
	attempted int
	failed    int
	problems  []string
	metrics   []metric
}

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func run(w workload, seed int64, d time.Duration, traced bool, outDir string, entry time.Time) (*result, error) {
	b := &bench{w: w, seed: seed, probing: !traced}
	var setups, rawSetups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = entry
		}
		prev := b.digest
		b.problems = nil
		b.setup()
		took := time.Since(t0)
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, atRefSpeed(took, probe()).Seconds())
		if rep > 0 && b.digest != prev {
			b.problem("warm-up outcomes differ between set-ups")
		}
	}

	var plain, measured phase
	var lp layerProfile
	if !traced {
		measured = b.timed(d, minOps, nil)
	} else {
		var err error
		if plain, measured, lp, err = b.tracedRun(d); err != nil {
			return nil, err
		}
	}
	if measured.attempted == 0 {
		return nil, fmt.Errorf("%s: the timed phase ran no ops", w.name)
	}

	pts := b.designPoints()
	b.audit.spans = lp.spans // a tuning run's reports are audited only here
	reports := b.designReports(pts)
	b.audit.spans = nil
	counts := b.counts(reports)
	var acc accuracy
	if w.accuracy {
		acc = b.measureAccuracy(pts, reports)
	}

	var all phase
	all.merge(plain)
	all.merge(measured)
	res := &result{attempted: all.attempted, failed: all.failed, problems: append(all.failures, b.problems...)}
	mode := "untraced"
	if traced {
		mode = "traced slices"
	}
	res.printf("wallbench %s seed %d: %d ops (%d failed) in %.1f s of op time (%s), closed loop, 1 client",
		w.name, seed, measured.attempted, measured.failed, measured.busy.Seconds(), mode)
	res.printf("%-26s 0x%016x", "sim_digest", b.digest)
	res.printf("%-26s %d", "audit_skipped", b.audit.skipped)
	if w.accuracy {
		res.printf("%-26s %.4f %% (mean of %d points, %d without a reference that fits; max %.4f %% at %s)",
			"step_err_pct", acc.meanPct, acc.n, acc.unfit, acc.maxPct, acc.worst)
	}
	for _, waived := range b.audit.waived {
		fmt.Fprintf(os.Stderr, "wallbench: roofline sandwich skipped on a faulted report that it would fail: %s\n", waived)
	}

	if !traced {
		for _, m := range counts {
			res.printf("%-26s %.6g %s", m.name, m.value, m.unit)
		}
		// The gated times are at the reference host speed; the times as
		// measured are printed above the result.
		raw, err := latencies(measured.opMs)
		if err != nil {
			return nil, err
		}
		ref, err := latencies(measured.refMs)
		if err != nil {
			return nil, err
		}
		res.printf("%-26s %.6g ms (median of %d; reference %.6g ms)", "probe",
			median(measured.probes), len(measured.probes), ms(probeRef))
		res.printf("%-26s ops_per_s %.6g, op_ms p50 %.6g p90 %.6g p99 %.6g, setup_s %.6g",
			"as measured:", measured.opsPerSec(), raw.p50, raw.p90, raw.p99, median(rawSetups))
		res.printf("%-26s op_ms_p99 %.6g", "at reference speed:", ref.p99)
		res.add("ops_per_s", measured.refOpsPerSec(), "1/s")
		res.add("op_ms_p50", ref.p50, "ms")
		res.add("op_ms_p90", ref.p90, "ms")
		res.add("alloc_mb_per_op", float64(measured.alloc)/float64(measured.attempted)/units.BytesPerMB, "MB")
		res.add("setup_s", median(setups), "s")
		return res, nil
	}

	sp := lp.spans
	scheduleFire, resourceUse := b.layerSpans(sp, pts)
	trace := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := sp.writeChrome(trace); err != nil {
		return nil, err
	}
	res.printf("%-26s %s", "chrome_trace", trace)
	ops := float64(measured.attempted)
	res.lines = append(res.lines, layerTable(lp.cpu, lp.allocs, ops)...)
	for _, layer := range []string{"sim", "nand", "ssd", "core", "runtime"} {
		res.add(layer+".cpu_ms_per_op", ms(time.Duration(lp.cpu[layer]))/ops, "ms")
	}
	for _, layer := range []string{"sim", "nand", "ssd", "core"} {
		res.add(layer+".alloc_mb_per_op", float64(lp.allocs[layer])/ops/units.BytesPerMB, "MB")
	}
	res.add("invariant.check_us", float64(sp.mean("invariant.check"))/float64(time.Microsecond), "us")
	res.add("ssd.build_ms", ms(sp.mean("ssd.build")), "ms")
	res.add("ssd.preload_ms", ms(sp.mean("ssd.preload")), "ms")
	res.add("ssd.waf_ms", ms(sp.mean("ssd.waf")), "ms")
	res.add("sim.schedule_fire_ns", scheduleFire, "ns")
	res.add("sim.resource_use_ns", resourceUse, "ns")
	res.add("trace_overhead_frac", 1-measured.opsPerSec()/plain.opsPerSec(), "fraction")
	res.metrics = append(res.metrics, counts...)
	eventsPerOp := counts[0].value
	res.add("sim.ns_per_event", float64(measured.busy.Nanoseconds())/ops/eventsPerOp, "ns")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.add("runtime.gc_cpu_frac", mem.GCCPUFraction, "fraction")
	res.add("runtime.peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

type opLatencies struct{ p50, p90, p99 float64 }

// latencies returns the p50 and p90 of op times, and the p99 when there
// are enough samples for it (NaN otherwise).
func latencies(opMs []float64) (opLatencies, error) {
	var l opLatencies
	var err error
	if l.p50, err = percentile(opMs, 50); err != nil {
		return l, err
	}
	if l.p90, err = percentile(opMs, 90); err != nil {
		return l, err
	}
	if l.p99, err = percentile(opMs, 99); err != nil {
		l.p99 = math.NaN()
	}
	return l, nil
}

// layerTable renders every profiled layer's CPU time, share and
// allocation per op, busiest first.
func layerTable(cpu, allocs map[string]int64, ops float64) []string {
	var layers []string
	var total int64
	for layer, ns := range cpu {
		layers = append(layers, layer)
		total += ns
	}
	for layer := range allocs {
		if _, ok := cpu[layer]; !ok {
			layers = append(layers, layer)
		}
	}
	sort.Slice(layers, func(i, j int) bool {
		if cpu[layers[i]] != cpu[layers[j]] {
			return cpu[layers[i]] > cpu[layers[j]]
		}
		return layers[i] < layers[j]
	})
	out := []string{fmt.Sprintf("%-12s %14s %8s %16s", "layer", "cpu_ms_per_op", "share", "alloc_mb_per_op")}
	for _, layer := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(cpu[layer]) / float64(total)
		}
		out = append(out, fmt.Sprintf("%-12s %14.4f %7.1f%% %16.4f", layer,
			ms(time.Duration(cpu[layer]))/ops, share, float64(allocs[layer])/ops/units.BytesPerMB))
	}
	return out
}

// write prints the human-readable lines, the metrics, any problems (to
// stderr) and, last, the JSON result.
func (r *result) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range r.metrics {
		r.printf("%-26s %.6g %s", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	for i, p := range r.problems {
		if i == maxProblems {
			fmt.Fprintf(os.Stderr, "wallbench: … %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "wallbench: FAILED: %s\n", p)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", strings.Join(r.lines, "\n"), data)
	return err
}
