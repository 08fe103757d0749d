// Package search is the design-space autotuner (DESIGN.md §12): given a
// model and a simulation budget, it explores the SSD/ODP design space —
// channels × dies × planes × bus speed × ECC × over-provisioning × layout
// × optimizer — for Pareto-optimal (step time, energy, lifetime) points.
//
// Exhaustive sweeping is quadratically wasteful: most of the grid is
// dominated before it is ever simulated. The tuner therefore prices every
// candidate with the analytic bounds of core.BoundFor — a true lower
// bound on simulated step time (the roofline sandwich invariant) and on
// step energy (the conservation floors), plus an exact analytic lifetime
// — and prunes a candidate as soon as an already simulated point beats
// its bounds in every objective. Since the bounds are optimistic, the
// pruned candidate's actual results could only have been worse than the
// dominating point's actuals, so pruning never discards a frontier point.
//
// Every grid point is the base configuration with the eight axis fields
// replaced, so a candidate is held as its tuple of axis values, not as a
// Config: enumeration prices each point in one scratch Config and keeps
// the tuple, its bounds and its lifetime. Results are memoized by the
// tuple, which is exact, since two points are equal exactly when their
// tuples are. A tuple is marked when its point is admitted to a wave, so
// no design point is simulated twice, in two waves or in one. A Point, with
// its full Config and Config.CanonicalHash, is built only for a point
// admitted to simulation.
//
// The whole run is deterministic: candidates are admitted in a fixed
// priority order, simulated in fixed-size waves whose composition does
// not depend on the worker-pool width, and the frontier is sorted with
// total tie-breaking — output is byte-identical at any -parallel setting.
package search

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/layout"
	"repro/internal/optim"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Space is the design-space grid: the cross product of every listed
// value, applied over a base configuration. Fields left nil keep the base
// configuration's setting (a single-value axis).
type Space struct {
	Channels       []int
	DiesPerChannel []int
	PlanesPerDie   []int
	BusMBps        []int
	OverProvision  []float64
	Layouts        []layout.Strategy
	Optimizers     []optim.Kind
	Retire         []ecc.RetirePolicy
}

// DefaultSpace is the paper-scale exploration grid. It includes the
// paper's default configuration (8×4×4, 1200 MB/s, 12.5% OP, colocated,
// Adam, no retirement) as one of its points.
func DefaultSpace() Space {
	return Space{
		Channels:       []int{2, 4, 8, 16},
		DiesPerChannel: []int{2, 4, 8},
		PlanesPerDie:   []int{2, 4},
		BusMBps:        []int{800, 1200, 2400},
		OverProvision:  []float64{0.07, 0.125, 0.25},
		Layouts:        layout.Strategies(),
		Optimizers:     []optim.Kind{optim.SGD, optim.Adam, optim.LAMB, optim.AdamA},
		Retire: []ecc.RetirePolicy{
			{},
			{RetryBudget: 8, ProbationReads: 4},
		},
	}
}

// Size returns the number of grid points before validation.
func (s Space) Size() int {
	n := 1
	for _, l := range []int{
		len(s.Channels), len(s.DiesPerChannel), len(s.PlanesPerDie), len(s.BusMBps),
		len(s.OverProvision), len(s.Layouts), len(s.Optimizers), len(s.Retire),
	} {
		if l > 0 {
			n *= l
		}
	}
	return n
}

// Options tunes a search run.
type Options struct {
	// System is the engine to tune, by core.SystemNames key; default
	// core.SystemOptimStore.
	System string
	// Budget caps the number of simulations (the expensive operation);
	// bound computation and pruning are analytic and uncapped. Default 64.
	Budget int
	// Parallel is the worker-pool width for each simulation wave; ≤0 uses
	// one worker per CPU. The result is byte-identical at any width.
	Parallel int
}

func (o Options) system() string {
	if o.System == "" {
		return core.SystemOptimStore
	}
	return o.System
}

func (o Options) budget() int {
	if o.Budget <= 0 {
		return 64
	}
	return o.Budget
}

// Point is one simulated design point: its configuration, analytic
// bounds and measured objectives. A Point exists only for a point the
// search admits to simulation; the rest of the grid is priced as
// candidates and never gets a Config of its own.
type Point struct {
	// Index is the point's row-major position in the grid; -1 for the
	// seeded base configuration when it is not itself a grid point.
	Index int
	Cfg   core.Config
	Hash  uint64

	// Bound is the analytic optimistic estimate used for pruning.
	Bound core.Bound
	// Lifetime is the analytic wear-limited lifetime in optimizer steps
	// (zero when the state does not fit the device's usable capacity).
	// Lifetime is exact, not a bound: it depends only on the full drive's
	// geometry, cell wear, and the sweep WAF that geometry decides.
	Lifetime float64

	// Simulated objectives, set once the point is evaluated.
	OptStep  sim.Time
	Energy   float64 // joules per step
	Feasible bool
}

// dominates reports whether p's measured objectives beat q's bounds in
// every coordinate, strictly in at least one. Only feasible simulated
// points may dominate: infeasible reports zero their counters and prove
// nothing.
func (p *Point) dominatesBound(stepBound sim.Time, energyBound, lifetime float64) bool {
	if !p.Feasible {
		return false
	}
	if p.OptStep > stepBound || p.Energy > energyBound || p.Lifetime < lifetime {
		return false
	}
	return p.OptStep < stepBound || p.Energy < energyBound || p.Lifetime > lifetime
}

// dominatesPoint is actual-vs-actual domination, for the frontier filter.
func (p *Point) dominatesPoint(q *Point) bool {
	if p.OptStep > q.OptStep || p.Energy > q.Energy || p.Lifetime < q.Lifetime {
		return false
	}
	return p.OptStep < q.OptStep || p.Energy < q.Energy || p.Lifetime > q.Lifetime
}

// Stats counts what happened to the grid.
type Stats struct {
	// Candidates is the number of valid grid points considered.
	Candidates int
	// Invalid counts grid points whose configuration failed validation.
	Invalid int
	// Pruned counts candidates rejected by bound domination before any
	// simulation.
	Pruned int
	// Evaluated counts simulations actually run (including the seed).
	Evaluated int
	// MemoHits counts candidates resolved from the memo table.
	MemoHits int
	// Skipped counts unpruned candidates left unsimulated when the budget
	// ran out.
	Skipped int
	// Infeasible counts evaluated points whose report was infeasible.
	Infeasible int
}

// PrunedFraction is the share of candidates rejected analytically.
func (s Stats) PrunedFraction() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Candidates)
}

// Result is a completed search.
type Result struct {
	System string
	// Frontier holds the Pareto-optimal evaluated points, sorted by
	// (step time, energy, -lifetime, index).
	Frontier []*Point
	// Evaluated holds every simulated point in evaluation order.
	Evaluated []*Point
	Stats     Stats
}

// waveSize is the number of unpruned candidates admitted per simulation
// wave. It is a fixed constant — never derived from the worker-pool width
// — so the pruning state between waves, and therefore the entire search
// trajectory, is identical at any -parallel setting.
const waveSize = 8

// Run explores the space over the base configuration. The base point
// itself is always simulated first (budget permitting it is the seed the
// first pruning decisions compare against), so the returned frontier
// always contains the base configuration or points that dominate it.
func Run(base core.Config, space Space, opts Options) (*Result, error) {
	system := opts.system()
	if _, ok := core.LookupSystem(system); !ok {
		return nil, fmt.Errorf("search: unknown system %q", system)
	}
	res := &Result{System: system}

	// Enumerate and price the grid.
	candidates, err := enumerate(base, space, system, &res.Stats)
	if err != nil {
		return nil, err
	}

	// Admission order: optimistic step bound, then energy bound, then
	// longest lifetime, then grid index — a total, deterministic order
	// that simulates the most promising configurations first, which is
	// what makes early evaluations prune the tail.
	slices.SortFunc(candidates, func(a, b candidate) int {
		if c := cmp.Compare(a.bound.StepFloor, b.bound.StepFloor); c != 0 {
			return c
		}
		if c := cmp.Compare(a.bound.EnergyFloor, b.bound.EnergyFloor); c != 0 {
			return c
		}
		if c := cmp.Compare(b.lifetime, a.lifetime); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})

	simulated := make(map[axes]bool)
	prunedBy := func(c candidate) bool {
		for _, p := range res.Evaluated {
			if p.dominatesBound(c.bound.StepFloor, c.bound.EnergyFloor, c.lifetime) {
				return true
			}
		}
		return false
	}
	evaluate := func(wave []candidate) error {
		points := make([]*Point, len(wave))
		jobs := make([]runner.Job[*core.Report], len(wave))
		for i, c := range wave {
			cfg := base
			c.axes.apply(&cfg)
			p := &Point{Index: c.index, Cfg: cfg, Hash: cfg.CanonicalHash(), Bound: c.bound, Lifetime: c.lifetime}
			points[i] = p
			jobs[i] = func() (*core.Report, error) {
				sys, err := core.NewSystem(system, p.Cfg)
				if err != nil {
					return nil, err
				}
				return sys.Run()
			}
		}
		results := runner.Run(opts.Parallel, jobs)
		if err := runner.FirstErr(results); err != nil {
			return err
		}
		for i, r := range results {
			p := points[i]
			p.OptStep = r.Value.OptStepTime
			p.Energy = r.Value.Energy.Total()
			p.Feasible = r.Value.Feasible
			if !p.Feasible {
				res.Stats.Infeasible++
			}
			res.Evaluated = append(res.Evaluated, p)
		}
		return nil
	}

	// Seed: the base configuration is simulated first, unconditionally.
	// It may lie outside the grid, so it is priced from its own config.
	seed := candidate{index: -1, axes: axesOf(&base)}
	if b, ok := core.BoundFor(system, base); ok {
		seed.bound = b
	}
	if seed.lifetime, err = lifetime(&base); err != nil {
		return nil, fmt.Errorf("search: base configuration: %w", err)
	}
	for _, c := range candidates {
		if c.axes == seed.axes {
			seed.index = c.index // the base is itself a grid point
			break
		}
	}
	res.Stats.Evaluated++
	simulated[seed.axes] = true
	if err := evaluate([]candidate{seed}); err != nil {
		return nil, err
	}

	budget := opts.budget()
	i := 0
	for i < len(candidates) {
		var wave []candidate
		for i < len(candidates) && len(wave) < waveSize {
			c := candidates[i]
			i++
			if simulated[c.axes] {
				res.Stats.MemoHits++
				continue
			}
			if prunedBy(c) {
				res.Stats.Pruned++
				continue
			}
			if res.Stats.Evaluated >= budget {
				res.Stats.Skipped++
				continue
			}
			res.Stats.Evaluated++
			simulated[c.axes] = true // a duplicate later in this wave is a memo hit
			wave = append(wave, c)
		}
		if len(wave) == 0 {
			continue
		}
		if err := evaluate(wave); err != nil {
			return nil, err
		}
	}

	res.Frontier = frontier(res.Evaluated)
	return res, nil
}

// lifetime prices cfg's wear-limited lifetime in optimizer steps, or 0
// when the state does not fit. The update WAF is decided from the full
// drive's own geometry (core.SweepWAF); a drive whose WAF that rule
// cannot decide is an error, never a guess.
func lifetime(cfg *core.Config) (float64, error) {
	cell := cfg.SSD.Nand.Cell
	waf, err := core.SweepWAF(*cfg, cell)
	if err != nil {
		return 0, err
	}
	life, fits := core.AnalyticLifetime(*cfg, cell, waf)
	if !fits {
		return 0, nil
	}
	return life, nil
}

// axes is one grid point's value on each of the eight grid axes. Every
// configuration the search prices is the base with these fields replaced,
// so two of them are equal exactly when their axes are: the tuple is the
// memo key. Over-provisioning is held as its float64 bits, the encoding
// Config.CanonicalHash gives it.
type axes struct {
	channels, dies, planes, busMBps int
	overProvision                   uint64
	layout                          layout.Strategy
	optimizer                       optim.Kind
	retire                          ecc.RetirePolicy
}

func axesOf(cfg *core.Config) axes {
	return axes{
		channels:      cfg.SSD.Channels,
		dies:          cfg.SSD.DiesPerChannel,
		planes:        cfg.SSD.Nand.PlanesPerDie,
		busMBps:       cfg.SSD.Nand.BusMBps,
		overProvision: math.Float64bits(cfg.SSD.OverProvision),
		layout:        cfg.Layout,
		optimizer:     cfg.Optimizer,
		retire:        cfg.SSD.Retire,
	}
}

// apply writes the axis values into cfg.
func (a axes) apply(cfg *core.Config) {
	cfg.SSD.Channels = a.channels
	cfg.SSD.DiesPerChannel = a.dies
	cfg.SSD.Nand.PlanesPerDie = a.planes
	cfg.SSD.Nand.BusMBps = a.busMBps
	cfg.SSD.OverProvision = math.Float64frombits(a.overProvision)
	cfg.Layout = a.layout
	cfg.Optimizer = a.optimizer
	cfg.SSD.Retire = a.retire
}

// A candidate is one valid grid point, priced: its row-major grid index,
// its axis values, its analytic bound and its lifetime.
type candidate struct {
	index    int
	axes     axes
	bound    core.Bound
	lifetime float64
}

// enumerate expands the grid row-major over the base configuration,
// pricing every valid point with its analytic bound and lifetime in one
// scratch Config. A point whose lifetime cannot be priced fails the whole
// enumeration.
func enumerate(base core.Config, space Space, system string, stats *Stats) ([]candidate, error) {
	channels := intAxis(space.Channels, base.SSD.Channels)
	dies := intAxis(space.DiesPerChannel, base.SSD.DiesPerChannel)
	planes := intAxis(space.PlanesPerDie, base.SSD.Nand.PlanesPerDie)
	bus := intAxis(space.BusMBps, base.SSD.Nand.BusMBps)
	overProv := space.OverProvision
	if len(overProv) == 0 {
		overProv = []float64{base.SSD.OverProvision}
	}
	layouts := space.Layouts
	if len(layouts) == 0 {
		layouts = []layout.Strategy{base.Layout}
	}
	optimizers := space.Optimizers
	if len(optimizers) == 0 {
		optimizers = []optim.Kind{base.Optimizer}
	}
	retires := space.Retire
	if len(retires) == 0 {
		retires = []ecc.RetirePolicy{base.SSD.Retire}
	}

	out := make([]candidate, 0, space.Size())
	cfg := base
	index := 0
	for _, ch := range channels {
		for _, d := range dies {
			for _, pl := range planes {
				for _, b := range bus {
					for _, op := range overProv {
						for _, lay := range layouts {
							for _, k := range optimizers {
								for _, ret := range retires {
									a := axes{ch, d, pl, b, math.Float64bits(op), lay, k, ret}
									a.apply(&cfg)
									idx := index
									index++
									if err := cfg.Validate(); err != nil {
										stats.Invalid++
										continue
									}
									bound, ok := core.BoundFor(system, cfg)
									if !ok {
										stats.Invalid++
										continue
									}
									life, err := lifetime(&cfg)
									if err != nil {
										return nil, fmt.Errorf("search: grid point %d: %w", idx, err)
									}
									stats.Candidates++
									out = append(out, candidate{index: idx, axes: a, bound: bound, lifetime: life})
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

func intAxis(vals []int, def int) []int {
	if len(vals) == 0 {
		return []int{def}
	}
	return vals
}

// frontier filters the evaluated points to the feasible non-dominated set
// and sorts it deterministically.
func frontier(points []*Point) []*Point {
	var out []*Point
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		dominated := false
		for _, q := range points {
			if q != p && q.Feasible && q.dominatesPoint(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.OptStep != b.OptStep {
			return a.OptStep < b.OptStep
		}
		if a.Energy != b.Energy {
			return a.Energy < b.Energy
		}
		if a.Lifetime != b.Lifetime {
			return a.Lifetime > b.Lifetime
		}
		return a.Index < b.Index
	})
	return out
}
