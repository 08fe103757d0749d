// Package search is the design-space autotuner (DESIGN.md §12): given a
// model and a simulation budget, it explores the SSD/ODP design space —
// channels × dies × planes × bus speed × over-provisioning × layout ×
// optimizer — for Pareto-optimal (step time, energy, lifetime) points.
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
// Every grid point is the base configuration with the seven axis fields
// replaced, and each analytic price reads only a few of them: the bound
// reads channels, dies, planes, bus speed and optimizer, the lifetime
// channels, dies, over-provisioning and optimizer. Enumeration therefore
// prices each axis subset once, in tables keyed by axis position and
// filled the first time a valid point needs an entry, and validates every
// point on its own. A candidate is held as its row-major grid index, its
// two floors and its lifetime; its axis values decode from the index.
// A space may list each axis value once, so a grid index is one design
// point, and the only point that can be simulated twice is the seed,
// whose grid index is looked up from its axis values. A Point, with its
// full Config, bound and Config.CanonicalHash, is built only for a point
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
	"slices"
	"sort"

	"repro/internal/core"
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
}

// DefaultSpace is the paper-scale exploration grid. It includes the
// paper's default configuration (8×4×4, 1200 MB/s, 12.5% OP, colocated,
// Adam) as one of its points.
func DefaultSpace() Space {
	return Space{
		Channels:       []int{2, 4, 8, 16},
		DiesPerChannel: []int{2, 4, 8},
		PlanesPerDie:   []int{2, 4},
		BusMBps:        []int{800, 1200, 2400},
		OverProvision:  []float64{0.07, 0.125, 0.25},
		Layouts:        layout.Strategies(),
		Optimizers:     []optim.Kind{optim.SGD, optim.Adam, optim.LAMB, optim.AdamA},
	}
}

// Size returns the number of grid points before validation.
func (s Space) Size() int {
	n := 1
	for _, l := range []int{
		len(s.Channels), len(s.DiesPerChannel), len(s.PlanesPerDie), len(s.BusMBps),
		len(s.OverProvision), len(s.Layouts), len(s.Optimizers),
	} {
		if l > 0 {
			n *= l
		}
	}
	return n
}

// distinct reports the first axis that lists a value twice. Each grid
// index is then one design point.
func (s Space) distinct() error {
	for _, err := range []error{
		repeated("Channels", s.Channels),
		repeated("DiesPerChannel", s.DiesPerChannel),
		repeated("PlanesPerDie", s.PlanesPerDie),
		repeated("BusMBps", s.BusMBps),
		repeated("OverProvision", s.OverProvision),
		repeated("Layouts", s.Layouts),
		repeated("Optimizers", s.Optimizers),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// repeated reports a value that vals lists twice.
func repeated[T comparable](axis string, vals []T) error {
	for i, v := range vals {
		if slices.Index(vals[:i], v) >= 0 {
			return fmt.Errorf("search: axis %s lists %v twice", axis, v)
		}
	}
	return nil
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
	// MemoHits counts candidates already simulated: the seed, when the
	// base configuration is itself a grid point.
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
// always contains the base configuration or points that dominate it. A
// space that lists an axis value twice is an error.
func Run(base core.Config, space Space, opts Options) (*Result, error) {
	system := opts.system()
	if _, ok := core.LookupSystem(system); !ok {
		return nil, fmt.Errorf("search: unknown system %q", system)
	}
	if err := space.distinct(); err != nil {
		return nil, err
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
		if c := cmp.Compare(a.stepFloor, b.stepFloor); c != 0 {
			return c
		}
		if c := cmp.Compare(a.energyFloor, b.energyFloor); c != 0 {
			return c
		}
		if c := cmp.Compare(b.lifetime, a.lifetime); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})

	g := newGrid(base, space)
	prunedBy := func(c candidate) bool {
		for _, p := range res.Evaluated {
			if p.dominatesBound(c.stepFloor, c.energyFloor, c.lifetime) {
				return true
			}
		}
		return false
	}
	// point builds an admitted configuration's Point. Its bound is priced
	// again, whole: the candidate kept only the two floors.
	point := func(index int, cfg core.Config, life float64) *Point {
		b, _ := core.BoundFor(system, cfg) // the system was looked up above
		return &Point{Index: index, Cfg: cfg, Hash: cfg.CanonicalHash(), Bound: b, Lifetime: life}
	}
	evaluate := func(points []*Point) error {
		jobs := make([]runner.Job[*core.Report], len(points))
		for i, p := range points {
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
	seedLife, err := lifetime(&base)
	if err != nil {
		return nil, fmt.Errorf("search: base configuration: %w", err)
	}
	seed := point(g.index(&base), base, seedLife)
	res.Stats.Evaluated++
	if err := evaluate([]*Point{seed}); err != nil {
		return nil, err
	}

	budget := opts.budget()
	i := 0
	for i < len(candidates) {
		var wave []*Point
		for i < len(candidates) && len(wave) < waveSize {
			c := candidates[i]
			i++
			if c.index == seed.Index {
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
			cfg := base
			g.apply(c.index, &cfg)
			wave = append(wave, point(c.index, cfg, c.lifetime))
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
	waf, err := core.SweepWAF(*cfg)
	if err != nil {
		return 0, err
	}
	life, fits := core.AnalyticLifetime(*cfg, waf)
	if !fits {
		return 0, nil
	}
	return life, nil
}

// A candidate is one valid grid point, priced: its row-major grid index,
// which decodes to its axis values (grid.apply), its two analytic floors
// and its lifetime.
type candidate struct {
	index       int
	stepFloor   sim.Time
	energyFloor float64
	lifetime    float64
}

// grid is a Space resolved over its base configuration: every axis lists
// at least one value, the base's own setting where the space lists none.
// Grid indices are row-major over the axes in field order, channels
// outermost and optimizer innermost.
type grid struct {
	channels, dies, planes, bus []int
	overProv                    []float64
	layouts                     []layout.Strategy
	optimizers                  []optim.Kind
}

// newGrid resolves space over base.
func newGrid(base core.Config, space Space) grid {
	return grid{
		channels:   orBase(space.Channels, base.SSD.Channels),
		dies:       orBase(space.DiesPerChannel, base.SSD.DiesPerChannel),
		planes:     orBase(space.PlanesPerDie, base.SSD.Nand.PlanesPerDie),
		bus:        orBase(space.BusMBps, base.SSD.Nand.BusMBps),
		overProv:   orBase(space.OverProvision, base.SSD.OverProvision),
		layouts:    orBase(space.Layouts, base.Layout),
		optimizers: orBase(space.Optimizers, base.Optimizer),
	}
}

func orBase[T any](vals []T, base T) []T {
	if len(vals) == 0 {
		return []T{base}
	}
	return vals
}

// apply writes grid point i's axis values into cfg.
func (g *grid) apply(i int, cfg *core.Config) {
	next := func(n int) int {
		pos := i % n
		i /= n
		return pos
	}
	cfg.Optimizer = g.optimizers[next(len(g.optimizers))]
	cfg.Layout = g.layouts[next(len(g.layouts))]
	cfg.SSD.OverProvision = g.overProv[next(len(g.overProv))]
	cfg.SSD.Nand.BusMBps = g.bus[next(len(g.bus))]
	cfg.SSD.Nand.PlanesPerDie = g.planes[next(len(g.planes))]
	cfg.SSD.DiesPerChannel = g.dies[next(len(g.dies))]
	cfg.SSD.Channels = g.channels[i]
}

// index returns the grid index of the point whose axis values are cfg's,
// or -1 when some value is not on its axis.
func (g *grid) index(cfg *core.Config) int {
	i := 0
	for _, pos := range [...]struct{ at, n int }{
		{slices.Index(g.channels, cfg.SSD.Channels), len(g.channels)},
		{slices.Index(g.dies, cfg.SSD.DiesPerChannel), len(g.dies)},
		{slices.Index(g.planes, cfg.SSD.Nand.PlanesPerDie), len(g.planes)},
		{slices.Index(g.bus, cfg.SSD.Nand.BusMBps), len(g.bus)},
		{slices.Index(g.overProv, cfg.SSD.OverProvision), len(g.overProv)},
		{slices.Index(g.layouts, cfg.Layout), len(g.layouts)},
		{slices.Index(g.optimizers, cfg.Optimizer), len(g.optimizers)},
	} {
		if pos.at < 0 {
			return -1
		}
		i = i*pos.n + pos.at
	}
	return i
}

// Pricing tables of up to tableStack entries live on enumerate's stack,
// and a larger one takes one allocation; the default space needs 288
// bound and 144 lifetime entries.
const tableStack = 512

// A boundEntry holds the floors of one (channels, dies, planes, bus,
// optimizer) subset, and a lifeEntry the lifetime of one (channels, dies,
// over-provisioning, optimizer) subset: the axes core.BoundFor and
// lifetime read. TestFactoredPricingMatchesPerPoint fails if either reads
// another. priced is false until the first valid point of the subset
// fills the entry.
type boundEntry struct {
	step       sim.Time
	energy     float64
	ok, priced bool
}

type lifeEntry struct {
	steps  float64
	priced bool
}

// table returns n zeroed entries, in buf when they fit.
func table[E any](buf []E, n int) []E {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]E, n)
}

// enumerate expands the grid row-major over the base configuration. It
// validates every point in one scratch Config, and prices each valid
// point's bound and lifetime from the tables, filling an entry from the
// first valid point that needs it. A point whose lifetime cannot be priced
// fails the whole enumeration; since entries fill in row-major order, the
// error names the same point a per-point pricing would.
func enumerate(base core.Config, space Space, system string, stats *Stats) ([]candidate, error) {
	g := newGrid(base, space)
	nd, npl, nb := len(g.dies), len(g.planes), len(g.bus)
	nop, nk := len(g.overProv), len(g.optimizers)
	var boundBuf [tableStack]boundEntry
	var lifeBuf [tableStack]lifeEntry
	bounds := table(boundBuf[:], len(g.channels)*nd*npl*nb*nk)
	lives := table(lifeBuf[:], len(g.channels)*nd*nop*nk)

	out := make([]candidate, 0, space.Size())
	cfg := base
	index := 0
	for ci, ch := range g.channels {
		cfg.SSD.Channels = ch
		for di, d := range g.dies {
			cfg.SSD.DiesPerChannel = d
			for pi, pl := range g.planes {
				cfg.SSD.Nand.PlanesPerDie = pl
				for bi, b := range g.bus {
					cfg.SSD.Nand.BusMBps = b
					for oi, op := range g.overProv {
						cfg.SSD.OverProvision = op
						for _, lay := range g.layouts {
							cfg.Layout = lay
							for ki, k := range g.optimizers {
								cfg.Optimizer = k
								bound := &bounds[(((ci*nd+di)*npl+pi)*nb+bi)*nk+ki]
								life := &lives[((ci*nd+di)*nop+oi)*nk+ki]
								idx := index
								index++
								if err := cfg.Validate(); err != nil {
									stats.Invalid++
									continue
								}
								if !bound.priced {
									b, ok := core.BoundFor(system, cfg)
									*bound = boundEntry{step: b.StepFloor, energy: b.EnergyFloor, ok: ok, priced: true}
								}
								if !bound.ok {
									stats.Invalid++
									continue
								}
								if !life.priced {
									steps, err := lifetime(&cfg)
									if err != nil {
										return nil, fmt.Errorf("search: grid point %d: %w", idx, err)
									}
									*life = lifeEntry{steps: steps, priced: true}
								}
								stats.Candidates++
								out = append(out, candidate{index: idx, stepFloor: bound.step, energyFloor: bound.energy, lifetime: life.steps})
							}
						}
					}
				}
			}
		}
	}
	return out, nil
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
