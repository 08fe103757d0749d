package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/invariant"
	"repro/internal/runner"
	"repro/internal/stats"
)

// This file defines the declarative experiment schema (DESIGN.md §12).
// An experiment is data: the axes to sweep, the systems to run at every
// grid cell, an optional per-cell derived computation, and the tables and
// figures to assemble from the completed grid. One generic executor
// expands the axes into (cell, system) simulation points, fans them
// across the worker pool, and renders the declared output — replacing
// the hand-coded run function every experiment used to be.

// AxisValue is one setting of a sweep axis: a config mutation plus the
// labels figures and tables use for it.
type AxisValue struct {
	// Label names the value in human-readable output.
	Label string
	// X is the value's numeric coordinate on figure x-axes.
	X float64
	// Apply mutates the cell's configuration; nil applies nothing.
	Apply func(*core.Config)
	// Meta carries the underlying typed value (a dnn.Model, an optim.Kind,
	// ...) for row builders that need more than the label.
	Meta any
}

// Axis is one sweep dimension. Axes are crossed in declaration order with
// the first axis outermost, matching the loop nesting of the hand-coded
// experiments this schema replaced.
type Axis struct {
	Name   string
	Values []AxisValue
}

// Cell is one point of the expanded grid: the resolved axis values, the
// configuration they produce, and the results computed there.
type Cell struct {
	// Index is the cell's row-major position in the grid.
	Index int
	// Coord holds the per-axis value indices (len == number of axes).
	Coord []int
	// Values holds the resolved axis values (len == number of axes).
	Values []AxisValue
	// Cfg is the cell's configuration after Base and every Apply.
	Cfg core.Config
	// Reports holds one report per spec system, in spec order. Empty when
	// the spec runs no systems.
	Reports []*core.Report
	// Aux is whatever the spec's Derive hook computed for this cell.
	Aux any
}

// Grid is the fully evaluated experiment: every cell with its reports and
// derived values, in row-major axis order.
type Grid struct {
	Axes    []Axis
	Systems []string
	Cells   []*Cell
}

// AllReports flattens every cell's reports in grid-then-system order —
// the order a nested "for each point, for each system" loop produces.
func (g *Grid) AllReports() []*core.Report {
	var out []*core.Report
	for _, c := range g.Cells {
		out = append(out, c.Reports...)
	}
	return out
}

// TableSpec declares one output table: either a header plus a per-cell
// row builder, or a Build function for the shared report/energy table
// renderers and other whole-grid shapes.
type TableSpec struct {
	Title  string
	Header []string
	// Rows returns the rows one cell contributes (usually one; one per
	// report for per-system tables). Called for every cell in grid order.
	Rows func(Options, *Grid, *Cell) [][]any
	// Build renders the whole table at once; it overrides Title/Header/Rows.
	Build func(Options, *Grid) *stats.Table
}

// SeriesSpec declares one figure series: a name and a per-cell point.
// ok=false skips the cell (infeasible systems, missing values).
type SeriesSpec struct {
	Name  string
	Point func(Options, *Grid, *Cell) (x, y float64, ok bool)
}

// GroupedSeriesSpec is a series template replicated per value of a
// FigureSpec's GroupBy axis (e.g. one "%d MHz" line per clock setting).
type GroupedSeriesSpec struct {
	Name  func(AxisValue) string
	Point func(Options, *Grid, *Cell) (x, y float64, ok bool)
}

// FigureSpec declares one output figure. Either Series (static lines fed
// by every cell) or GroupBy+Grouped (templates replicated per axis value,
// fed only by that value's cells) is set.
type FigureSpec struct {
	Title  string
	XLabel string
	YLabel string

	Series []SeriesSpec

	// GroupBy names an axis; Grouped templates are instantiated once per
	// value of it, in axis order, and receive only matching cells.
	GroupBy string
	Grouped []GroupedSeriesSpec
}

// Spec is one declarative experiment.
type Spec struct {
	ID    string
	Title string

	// Axes returns the sweep dimensions for the options (quick mode
	// typically thins the value lists). Nil or empty means a single cell.
	Axes func(Options) []Axis
	// Systems are run at every cell, in order. Empty runs none (Derive
	// carries the computation instead).
	Systems []string
	// Base returns the starting configuration of every cell before axis
	// values apply. Nil uses baseConfig(opts, dnn.GPT13B()).
	Base func(Options) core.Config
	// Derive computes a per-cell auxiliary value (an endurance report, a
	// layout fraction, a cluster report) into Cell.Aux. Nil skips it.
	Derive func(Options, *Cell) (any, error)

	Tables  []TableSpec
	Figures []FigureSpec

	// Then is a second grid, evaluated after this one, whose tables and
	// figures are appended to this spec's (F9's per-model table, F20's
	// cross-system storm). Its ID and Title are unused.
	Then *Spec
}

// execute expands a declarative spec into its grid, fans every (cell,
// system) simulation and every Derive across the worker pool, renders
// the declared tables and figures, and appends those of the Then grid.
// All outputs are deterministic, so the fan-out granularity never changes
// a byte of the result.
func execute(s *Spec, opts Options) (*Result, error) {
	grid, err := expand(s, opts)
	if err != nil {
		return nil, err
	}
	if err := evaluate(s, opts, grid); err != nil {
		return nil, err
	}
	res, err := render(s, opts, grid)
	if err != nil || s.Then == nil {
		return res, err
	}
	then, err := execute(s.Then, opts)
	if err != nil {
		return nil, err
	}
	res.Tables = append(res.Tables, then.Tables...)
	res.Figures = append(res.Figures, then.Figures...)
	return res, nil
}

// expand builds the grid cells: the cross-product of the axes in
// declaration order (first axis outermost) with each cell's configuration
// assembled from Base plus every axis value's Apply.
func expand(s *Spec, opts Options) (*Grid, error) {
	var axes []Axis
	if s.Axes != nil {
		axes = s.Axes(opts)
	}
	for _, a := range axes {
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("axis %q has no values", a.Name)
		}
	}
	total := 1
	for _, a := range axes {
		total *= len(a.Values)
	}
	g := &Grid{Axes: axes, Systems: s.Systems, Cells: make([]*Cell, 0, total)}
	coord := make([]int, len(axes))
	for i := 0; i < total; i++ {
		c := &Cell{
			Index:  i,
			Coord:  append([]int(nil), coord...),
			Values: make([]AxisValue, len(axes)),
		}
		if s.Base != nil {
			c.Cfg = s.Base(opts)
		} else {
			c.Cfg = baseConfig(opts, dnn.GPT13B())
		}
		for ai, a := range axes {
			v := a.Values[coord[ai]]
			c.Values[ai] = v
			if v.Apply != nil {
				v.Apply(&c.Cfg)
			}
		}
		g.Cells = append(g.Cells, c)
		// Row-major increment: last axis fastest.
		for ai := len(axes) - 1; ai >= 0; ai-- {
			coord[ai]++
			if coord[ai] < len(axes[ai].Values) {
				break
			}
			coord[ai] = 0
		}
	}
	return g, nil
}

// evaluate runs every (cell, system) point and every Derive hook across
// one flat worker pool and stores the results back on the cells.
type cellJob struct {
	report *core.Report
	aux    any
}

func evaluate(s *Spec, opts Options, g *Grid) error {
	type slot struct {
		cell   *Cell
		system int // report index, or -1 for the Derive job
	}
	var slots []slot
	var jobs []runner.Job[cellJob]
	for _, c := range g.Cells {
		c := c
		c.Reports = make([]*core.Report, len(g.Systems))
		for si, name := range g.Systems {
			si, name := si, name
			slots = append(slots, slot{c, si})
			jobs = append(jobs, func() (cellJob, error) {
				r, err := runSystem(opts, name, c.Cfg)
				return cellJob{report: r}, err
			})
		}
		if s.Derive != nil {
			slots = append(slots, slot{c, -1})
			jobs = append(jobs, func() (cellJob, error) {
				aux, err := s.Derive(opts, c)
				return cellJob{aux: aux}, err
			})
		}
	}
	results := runner.Run(opts.Parallel, jobs)
	if err := runner.FirstErr(results); err != nil {
		return err
	}
	for i, r := range results {
		if slots[i].system < 0 {
			slots[i].cell.Aux = r.Value.aux
		} else {
			slots[i].cell.Reports[slots[i].system] = r.Value.report
		}
	}
	return nil
}

// runSystem runs one system on one configuration, auditing the report
// against the physical-invariant registry when the options ask for it.
// Every simulated experiment point runs through it.
func runSystem(opts Options, name string, cfg core.Config) (*core.Report, error) {
	sys, err := core.NewSystem(name, cfg)
	if err != nil {
		return nil, err
	}
	r, err := sys.Run()
	if err != nil {
		return nil, err
	}
	if opts.CheckInvariants {
		if v := invariant.Audit(name, cfg, r); len(v) > 0 {
			return r, fmt.Errorf("system %s violates invariants: %s", name, strings.Join(v, "; "))
		}
	}
	return r, nil
}

// render assembles the declared tables and figures from the evaluated grid.
func render(s *Spec, opts Options, g *Grid) (*Result, error) {
	res := &Result{}
	for _, ts := range s.Tables {
		if ts.Build != nil {
			res.Tables = append(res.Tables, ts.Build(opts, g))
			continue
		}
		t := stats.NewTable(ts.Title, ts.Header...)
		for _, c := range g.Cells {
			for _, row := range ts.Rows(opts, g, c) {
				t.AddRow(row...)
			}
		}
		res.Tables = append(res.Tables, t)
	}
	for _, fs := range s.Figures {
		fig, err := renderFigure(fs, opts, g)
		if err != nil {
			return nil, err
		}
		res.Figures = append(res.Figures, fig)
	}
	return res, nil
}

// renderFigure materialises one figure spec: static series fed cell-major,
// or grouped templates instantiated per GroupBy-axis value.
func renderFigure(fs FigureSpec, opts Options, g *Grid) (*stats.Figure, error) {
	fig := stats.NewFigure(fs.Title, fs.XLabel, fs.YLabel)
	if fs.GroupBy == "" {
		series := make([]*stats.Series, len(fs.Series))
		for i, ss := range fs.Series {
			series[i] = fig.AddSeries(ss.Name)
		}
		for _, c := range g.Cells {
			for i, ss := range fs.Series {
				if x, y, ok := ss.Point(opts, g, c); ok {
					series[i].Add(x, y)
				}
			}
		}
		return fig, nil
	}
	axis := -1
	for ai, a := range g.Axes {
		if a.Name == fs.GroupBy {
			axis = ai
		}
	}
	if axis < 0 {
		return nil, fmt.Errorf("figure %q groups by unknown axis %q", fs.Title, fs.GroupBy)
	}
	for vi, v := range g.Axes[axis].Values {
		series := make([]*stats.Series, len(fs.Grouped))
		for i, gs := range fs.Grouped {
			series[i] = fig.AddSeries(gs.Name(v))
		}
		for _, c := range g.Cells {
			if c.Coord[axis] != vi {
				continue
			}
			for i, gs := range fs.Grouped {
				if x, y, ok := gs.Point(opts, g, c); ok {
					series[i].Add(x, y)
				}
			}
		}
	}
	return fig, nil
}
