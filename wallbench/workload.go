package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/search"
)

// A point is the input of one op: a design point run on one system, or a
// tuning run over a base configuration (empty system).
type point struct {
	label  string
	system string
	cfg    core.Config
}

// An outcome is what one op produced: a report, or a tuning result.
type outcome struct {
	report *core.Report
	tuned  *search.Result
}

// tuneOptions is the tuning run of the tune workload: the make tier6
// search at half its simulation budget, so that a run of the benchmark
// holds the 100 ops its p90 needs.
var tuneOptions = search.Options{Budget: 16, Parallel: 1}

func (p point) run() (outcome, error) {
	if p.system == "" {
		res, err := search.Run(p.cfg, search.DefaultSpace(), tuneOptions)
		return outcome{tuned: res}, err
	}
	sys, err := core.NewSystem(p.system, p.cfg)
	if err != nil {
		return outcome{}, err
	}
	r, err := sys.Run()
	return outcome{report: r}, err
}

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// points builds the inputs for a seed: the warm-up points, and the
	// fresh points of a workload whose timed ops never repeat a point. When
	// fresh is nil the timed ops repeat the warm-up points in passes whose
	// order the seed permutes.
	points func(seed int64) (warm, fresh []point)
	// accuracy marks the workloads whose design points fit a refUnits
	// window on their own device, so their window error can be measured.
	accuracy bool
}

// refUnits is the simulation window of the accuracy reference: the same
// design point simulated long enough that the window's fill and drain
// no longer move the extrapolated step.
const refUnits = 16384

var workloads = []workload{
	{
		name: "sweep",
		why: "the cmd/sweep grid at 128-unit windows: device build and preload (ssd) dominate, " +
			"and its 40 points repeat, so reuse across ops shows",
		points: func(int64) ([]point, []point) {
			return gridPoints([]int{1, 2, 3, 4, 6, 8, 12, 16}, core.SystemNames(), 128), nil
		},
		accuracy: true,
	},
	{
		name: "steady",
		why: "8192-unit windows: the event kernel and steady-state FTL reads and programs do the work; " +
			"a build or preload gain should not move it",
		points: func(int64) ([]point, []point) {
			return gridPoints([]int{4, 16}, []string{"hostoffload", "interleaved", "ctrlisp", "optimstore"}, 8192), nil
		},
		accuracy: true,
	},
	{
		name: "mixed",
		why: "seeded configs that never repeat, with fault storms, every optimizer, layouts and small devices: " +
			"defeats caching and runs recovery and retirement in ssd",
		points: mixedPoints,
	},
	{
		name: "tune",
		why: "one roofline-pruned search of the 5184-point default space per op: the only workload " +
			"that runs search, bound pricing, hashing and the GC-heavy WAF measurement",
		points:   tunePoints,
		accuracy: true,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gridPoints is the channels × systems grid over GPT-13B at one window.
func gridPoints(channels []int, systems []string, window int64) []point {
	var pts []point
	for _, ch := range channels {
		for _, sys := range systems {
			cfg := core.DefaultConfig(dnn.GPT13B())
			cfg.MaxSimUnits = window
			cfg.SSD.Channels = ch
			pts = append(pts, point{label: fmt.Sprintf("%s/ch%d", sys, ch), system: sys, cfg: cfg})
		}
	}
	return pts
}

// Mixed draws mixedWarm warm-up points and mixedFresh timed points from
// invariant.Configs. mixedFresh is about twice what a 20 s run uses today;
// a run that uses them all ends its timed phase early.
const (
	mixedWarm  = 200
	mixedFresh = 25000
)

// mixedPoints assigns each seeded config a system (round-robin over all
// five), a checkpoint policy (cycling none, inplace, hostpull) and, on 20
// of every 25 points, the tier-5 fault storm. The systems cycle every 5
// points and the storm every 25, so each system runs both faulted and
// fault-free.
func mixedPoints(seed int64) (warm, fresh []point) {
	cfgs := invariant.Configs(seed, mixedWarm+mixedFresh)
	systems := core.SystemNames()
	policies := []fault.Policy{fault.CheckpointNone, fault.CheckpointInPlace, fault.CheckpointHostPull}
	pts := make([]point, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Checkpoint = policies[i%len(policies)]
		if i%25 < 20 {
			cfg.Fault = fault.Spec{
				Seed:            int64(7*i + 1),
				PowerLossPerSec: 2_000,
				DieFailPerSec:   1_000,
				ECCPerSec:       4_000,
				HorizonMs:       5,
			}
		}
		sys := systems[i%len(systems)]
		pts[i] = point{label: fmt.Sprintf("mixed#%d/%s", i, sys), system: sys, cfg: cfg}
	}
	return pts[:mixedWarm], pts[mixedWarm:]
}

// tunePoints is one tuning run per model; op i tunes model i mod 4 in the
// seeded pass order.
func tunePoints(int64) ([]point, []point) {
	var pts []point
	for _, m := range []dnn.Model{dnn.GPT6B7(), dnn.Llama7B(), dnn.GPT13B(), dnn.GPT30B()} {
		cfg := core.DefaultConfig(m)
		cfg.MaxSimUnits = 256
		pts = append(pts, point{label: "tune/" + m.Name, cfg: cfg})
	}
	return pts, nil
}

// schedule yields the timed ops of a workload in order.
type schedule struct {
	warm  []point
	fresh []point
	rng   *rand.Rand
	used  int // fresh points handed out
}

func newSchedule(seed int64, warm, fresh []point) *schedule {
	return &schedule{warm: warm, fresh: fresh, rng: rand.New(rand.NewSource(seed))}
}

// freshBatch is how many fresh points one batch runs; a batch of a
// repeating workload is one pass over its warm-up points.
const freshBatch = 40

// batch returns the next ops and, for each, the index of the warm-up
// point it repeats (-1 for a fresh point). It returns no ops once a
// workload's fresh points run out.
func (s *schedule) batch() ([]point, []int) {
	if s.fresh == nil {
		perm := s.rng.Perm(len(s.warm))
		pts := make([]point, len(perm))
		for i, k := range perm {
			pts[i] = s.warm[k]
		}
		return pts, perm
	}
	end := s.used + freshBatch
	if end > len(s.fresh) {
		end = len(s.fresh)
	}
	pts := s.fresh[s.used:end]
	s.used = end
	refs := make([]int, len(pts))
	for i := range refs {
		refs[i] = -1
	}
	return pts, refs
}

// check audits one op's outcome and compares it with the warm-up outcome
// of the same point (want is nil for a fresh point). It returns a
// description of the first problem, or "" when the outcome is correct.
func check(p point, got outcome, want *outcome, a *auditor) string {
	if got.report != nil {
		if v := a.audit(p, got.report); len(v) > 0 {
			return fmt.Sprintf("%s: invariant violations: %v", p.label, v)
		}
	}
	if want != nil && !reflect.DeepEqual(got, *want) {
		return fmt.Sprintf("%s: outcome differs from the warm-up run of the same point", p.label)
	}
	return ""
}

// sandwich names the invariant property whose analytic floor assumes a
// fault-free run.
const sandwich = "roofline-sandwich"

// An auditor runs the invariant registry over reports. The roofline
// sandwich's floor is fault-free, so on a report whose fault counters are
// nonzero the auditor skips it, counts the skip and keeps the points where
// it would have tripped for a follow-up in internal/invariant.
type auditor struct {
	skipped int
	waived  []string
	spans   *spans // nil when untraced
}

func (a *auditor) audit(p point, r *core.Report) []string {
	done := a.spans.start("audit", "invariant.check")
	defer done()
	faulted := r.PowerLossFaults+r.DieFailFaults+r.ECCFaults > 0
	var violations []string
	for _, prop := range invariant.Properties(p.system) {
		err := prop.Check(p.system, p.cfg, r)
		if faulted && prop.Name == sandwich {
			a.skipped++
			if err != nil {
				a.waived = append(a.waived, fmt.Sprintf("%s: %v", p.label, err))
			}
			continue
		}
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: %v", prop.Name, err))
		}
	}
	return violations
}

// percentile returns the p-th percentile (0 < p < 100) of the samples by
// the nearest-rank method. It refuses a percentile with fewer than
// minBeyond samples above it, which could not be told apart from noise.
func percentile(samples []float64, p float64) (float64, error) {
	const minBeyond = 10
	n := len(samples)
	rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples keeps %d beyond it, want at least %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median returns the middle sample, averaging the two middle ones of an
// even count.
func median(samples []float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
