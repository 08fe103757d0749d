package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/nand"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/units"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minOps keeps ten samples beyond the p90 of an untraced run; a run
// whose timed phase ends with fewer ops goes on until it has them.
const minOps = 100

// maxProblems caps the problem descriptions a run prints.
const maxProblems = 10

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    int64
	warmPts []point
	warm    []outcome
	sched   *schedule
	digest  uint64
	audit   auditor
	// probing runs the host-speed probe after every batch of timed ops,
	// so that their times can be given at the reference host speed.
	probing bool

	problems []string // failed checks outside the timed ops
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// setup builds the inputs from the seed and runs the untimed warm-up:
// every warm-up point once, audited, its outcome kept as the expected
// outcome of later ops on the same point and folded into sim_digest.
func (b *bench) setup() {
	warm, fresh := b.w.points(b.seed)
	b.warmPts, b.sched = warm, newSchedule(b.seed, warm, fresh)
	b.audit = auditor{}
	b.warm = make([]outcome, len(warm))
	h := fnv.New64a()
	for i, res := range runner.Run(1, jobsFor(warm, nil)) {
		p := warm[i]
		if res.Err != nil {
			b.problem("warm-up %s: %v", p.label, res.Err)
			continue
		}
		b.warm[i] = res.Value
		if msg := check(p, res.Value, nil, &b.audit); msg != "" {
			b.problem("warm-up %s", msg)
		}
		if res.Value.report != nil {
			fmt.Fprintf(h, "%+v\n", res.Value.report)
			continue
		}
		for _, f := range res.Value.tuned.Frontier {
			fmt.Fprintf(h, "%+v\n", *f)
		}
	}
	b.digest = h.Sum64()
}

// jobsFor wraps points as runner jobs, each under an "ops" span when sp
// records.
func jobsFor(pts []point, sp *spans) []runner.Job[outcome] {
	jobs := make([]runner.Job[outcome], len(pts))
	for i, p := range pts {
		p := p
		jobs[i] = func() (outcome, error) {
			defer sp.start("ops", p.label)()
			return p.run()
		}
	}
	return jobs
}

// A phase is one timed stretch of ops.
type phase struct {
	opMs      []float64
	busy      time.Duration
	attempted int
	failed    int
	failures  []string
	alloc     uint64 // bytes allocated over the phase

	// With probing: each op's time at the reference host speed, scaled by
	// the probe that ran right after its batch, and the probe times.
	refMs   []float64
	refBusy time.Duration
	probes  []float64
}

// timed runs ops in a closed loop with one client, each op starting when
// the previous one returns, until d has passed and at least min ops ran.
// Every op is audited and compared after it returns, outside its timing,
// and with probing the probe runs after every batch, outside it too.
func (b *bench) timed(d time.Duration, min int, sp *spans) phase {
	var ph phase
	b.audit.spans = sp
	defer func() { b.audit.spans = nil }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || ph.attempted < min {
		pts, refs := b.sched.batch()
		if len(pts) == 0 {
			break
		}
		results := runner.Run(1, jobsFor(pts, sp))
		if b.probing {
			p := probe()
			ph.probes = append(ph.probes, ms(p))
			for _, res := range results {
				t := atRefSpeed(res.Wall, p)
				ph.refMs = append(ph.refMs, ms(t))
				ph.refBusy += t
			}
		}
		for i, res := range results {
			ph.attempted++
			ph.opMs = append(ph.opMs, ms(res.Wall))
			ph.busy += res.Wall
			msg := ""
			if res.Err != nil {
				msg = fmt.Sprintf("%s: %v", pts[i].label, res.Err)
			} else {
				var want *outcome
				if refs[i] >= 0 {
					want = &b.warm[refs[i]]
				}
				msg = check(pts[i], res.Value, want, &b.audit)
			}
			if msg != "" {
				ph.failed++
				if len(ph.failures) < maxProblems {
					ph.failures = append(ph.failures, msg)
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	ph.alloc = after.TotalAlloc - before.TotalAlloc
	return ph
}

// merge appends another phase's ops to ph.
func (ph *phase) merge(o phase) {
	ph.opMs = append(ph.opMs, o.opMs...)
	ph.busy += o.busy
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.alloc += o.alloc
	ph.refMs = append(ph.refMs, o.refMs...)
	ph.refBusy += o.refBusy
	ph.probes = append(ph.probes, o.probes...)
	for _, f := range o.failures {
		if len(ph.failures) < maxProblems {
			ph.failures = append(ph.failures, f)
		}
	}
}

// traceSlice is the length of one slice of a traced run.
const traceSlice = time.Second

// layerProfile is what a traced run records per layer.
type layerProfile struct {
	spans  *spans
	cpu    map[string]int64 // CPU nanoseconds over the traced slices
	allocs map[string]int64 // bytes allocated over the traced slices
}

// tracedRun alternates untraced and traced slices over d, so that warming
// up over the run does not show as tracing overhead. A traced slice runs
// its ops under spans and the CPU profiler, with an allocation profile
// taken on either side; every slice starts from a collected heap.
func (b *bench) tracedRun(d time.Duration) (plain, traced phase, lp layerProfile, err error) {
	lp = layerProfile{spans: newSpans(b.w.name), cpu: map[string]int64{}, allocs: map[string]int64{}}
	slices := int(d / traceSlice)
	if slices < 2 {
		slices = 2
	}
	slice := d / time.Duration(slices)
	for k := 0; k < slices; k++ {
		if k%2 == 0 {
			runtime.GC()
			plain.merge(b.timed(slice, 0, nil))
			continue
		}
		before, err := allocsByLayer()
		if err != nil {
			return plain, traced, lp, err
		}
		var ph phase
		data, err := cpuProfile(func() { ph = b.timed(slice, 0, lp.spans) })
		if err != nil {
			return plain, traced, lp, err
		}
		traced.merge(ph)
		after, err := allocsByLayer()
		if err != nil {
			return plain, traced, lp, err
		}
		p, err := parseProfile(data)
		if err != nil {
			return plain, traced, lp, err
		}
		cpu, err := p.byLayer("cpu")
		if err != nil {
			return plain, traced, lp, err
		}
		for layer, ns := range cpu {
			lp.cpu[layer] += ns
		}
		for layer, n := range after {
			lp.allocs[layer] += n - before[layer]
		}
	}
	return plain, traced, lp, nil
}

func (ph phase) opsPerSec() float64 {
	return float64(ph.attempted-ph.failed) / ph.busy.Seconds()
}

// refOpsPerSec is opsPerSec at the reference host speed.
func (ph phase) refOpsPerSec() float64 {
	return float64(ph.attempted-ph.failed) / ph.refBusy.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// designPoints lists, per warm-up op, the design points it simulated: the
// point itself, or every point a tuning run evaluated.
func (b *bench) designPoints() [][]point {
	out := make([][]point, len(b.warm))
	for i, o := range b.warm {
		if o.tuned == nil {
			out[i] = []point{b.warmPts[i]}
			continue
		}
		for _, ev := range o.tuned.Evaluated {
			out[i] = append(out[i], point{
				label:  fmt.Sprintf("%s/point%d", b.warmPts[i].label, ev.Index),
				system: o.tuned.System,
				cfg:    ev.Cfg,
			})
		}
	}
	return out
}

// designReports returns the report of every design point of the warm-up
// ops. A tuning run keeps no reports, so its evaluated points are
// simulated again, audited, and checked against the step time the search
// recorded.
func (b *bench) designReports(pts [][]point) [][]*core.Report {
	out := make([][]*core.Report, len(pts))
	for i, o := range b.warm {
		if o.tuned == nil {
			out[i] = []*core.Report{o.report}
			continue
		}
		for k, res := range runner.Run(1, jobsFor(pts[i], nil)) {
			p := pts[i][k]
			if res.Err != nil {
				b.problem("%s: %v", p.label, res.Err)
				out[i] = append(out[i], nil)
				continue
			}
			r := res.Value.report
			if v := b.audit.audit(p, r); len(v) > 0 {
				b.problem("%s: invariant violations: %v", p.label, v)
			}
			if ev := o.tuned.Evaluated[k]; r.OptStepTime != ev.OptStep {
				b.problem("%s: step %v differs from the %v the search recorded", p.label, r.OptStepTime, ev.OptStep)
			}
			out[i] = append(out[i], r)
		}
	}
	return out
}

// counts returns the deterministic per-op tallies of the warm-up ops,
// sim.events_per_op first.
func (b *bench) counts(reports [][]*core.Report) []metric {
	var events, fired, waf float64
	var wafN int
	for _, rs := range reports {
		for _, r := range rs {
			if r == nil {
				continue
			}
			events += float64(r.SimEvents)
			fired += float64(r.PowerLossFaults + r.DieFailFaults + r.ECCFaults)
			if r.Feasible && r.WAF > 0 {
				waf += r.WAF
				wafN++
			}
		}
	}
	wafMean := 0.0
	if wafN > 0 {
		wafMean = waf / float64(wafN)
	}
	n := float64(len(reports))
	var pruned, evaluated, memoHits, frontier float64
	for _, o := range b.warm {
		if o.tuned == nil {
			continue
		}
		s := o.tuned.Stats
		pruned += s.PrunedFraction()
		evaluated += float64(s.Evaluated)
		memoHits += float64(s.MemoHits)
		frontier += float64(len(o.tuned.Frontier))
	}
	return []metric{
		{"sim.events_per_op", events / n, "count"},
		{"ssd.waf_mean", wafMean, "ratio"},
		{"fault.fired_per_op", fired / n, "count"},
		{"search.pruned_frac", pruned / n, "fraction"},
		{"search.evaluated_per_op", evaluated / n, "count"},
		{"search.memo_hits_per_op", memoHits / n, "count"},
		{"search.frontier_size", frontier / n, "count"},
	}
}

// accuracy is the window error of a workload's design points against the
// same points simulated with a refUnits window.
type accuracy struct {
	meanPct, maxPct float64
	worst           string
	n               int
	unfit           int // points whose device cannot hold the reference window
}

// measureAccuracy simulates each design point whose result a user reads
// (a grid point, or a point on a tuning run's frontier) again with a
// refUnits window and compares its optimizer step with the windowed one.
// A point is left out when the reference window would fill more than a
// third of its device, the limit invariant.Configs keeps GC steady under.
// It runs the first reference twice and requires identical reports.
func (b *bench) measureAccuracy(pts [][]point, reports [][]*core.Report) accuracy {
	var acc accuracy
	var refPts []point
	var windowed []*core.Report
	for i, o := range b.warm {
		for k, p := range pts[i] {
			r := reports[i][k]
			if r == nil || !r.Feasible {
				continue
			}
			if o.tuned != nil && !onFrontier(o.tuned, k) {
				continue
			}
			ref := p
			ref.cfg.MaxSimUnits = refUnits
			if 3*ref.cfg.SimUnits()*int64(ref.cfg.Comps()) > ref.cfg.SSD.Geometry().TotalPages() {
				acc.unfit++
				continue
			}
			refPts = append(refPts, ref)
			windowed = append(windowed, r)
		}
	}
	if len(refPts) == 0 {
		return acc
	}
	results := runner.Run(1, jobsFor(append(refPts, refPts[0]), nil))
	first, again := results[0], results[len(results)-1]
	if first.Err == nil && again.Err == nil && !reflect.DeepEqual(first.Value, again.Value) {
		b.problem("accuracy reference of %s is not reproducible", refPts[0].label)
	}
	var sum float64
	for i, res := range results[:len(refPts)] {
		if res.Err != nil {
			b.problem("accuracy reference %s: %v", refPts[i].label, res.Err)
			continue
		}
		ref := res.Value.report
		if !ref.Feasible || ref.OptStepTime <= 0 {
			continue
		}
		e := 100 * float64(windowed[i].OptStepTime-ref.OptStepTime) / float64(ref.OptStepTime)
		if e < 0 {
			e = -e
		}
		sum += e
		acc.n++
		if e > acc.maxPct {
			acc.maxPct, acc.worst = e, refPts[i].label
		}
	}
	if acc.n > 0 {
		acc.meanPct = sum / float64(acc.n)
	}
	return acc
}

func onFrontier(res *search.Result, evaluated int) bool {
	for _, f := range res.Frontier {
		if f == res.Evaluated[evaluated] {
			return true
		}
	}
	return false
}

// layerSpans times, under spans, the device set-up of every device-backed
// design point, the WAF measurement of every (cell, over-provisioning)
// pair the workload prices, and the event-kernel loops.
func (b *bench) layerSpans(sp *spans, pts [][]point) (scheduleFire, resourceUse float64) {
	type pair struct {
		cell nand.CellType
		op   float64
	}
	var pairs []pair
	seen := map[pair]bool{}
	add := func(p pair) {
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	for i, group := range pts {
		if b.warmPts[i].system == "" {
			for _, op := range search.DefaultSpace().OverProvision {
				add(pair{b.warmPts[i].cfg.SSD.Nand.Cell, op})
			}
		}
		for _, p := range group {
			if p.system == invariant.GPUResident {
				continue
			}
			add(pair{p.cfg.SSD.Nand.Cell, p.cfg.SSD.OverProvision})
			if err := sp.buildAndPreload(p.cfg); err != nil {
				b.problem("%s: device set-up: %v", p.label, err)
			}
		}
	}
	for _, p := range pairs {
		if err := sp.measureWAF(p.cell, p.op); err != nil {
			b.problem("WAF of %v at OP %g: %v", p.cell, p.op, err)
		}
	}
	return sp.kernelLoops()
}

// cpuProfile runs fn under the CPU profiler and returns the profile.
func cpuProfile(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// allocsByLayer returns the bytes allocated so far, per layer, from the
// allocation profile, after a collection brings it up to date.
func allocsByLayer() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return p.byLayer("alloc_space")
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * float64(units.KiB) / units.BytesPerMB // Maxrss is in KiB on Linux
}
