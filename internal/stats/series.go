package stats

import (
	"fmt"
	"sort"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one line of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the y value for the first point with the given x, and whether
// one exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure is a set of series sharing an x axis — the in-memory form of one
// paper figure. Render produces the rows a reader would extract from the
// plot.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, registers and returns a named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// xValues returns the sorted union of all x coordinates.
func (f *Figure) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

// Table converts the figure to a table with one row per x value and one
// column per series.
func (f *Figure) Table() *Table {
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(fmt.Sprintf("%s  (y: %s)", f.Title, f.YLabel), headers...)
	for _, x := range f.xValues() {
		row := []any{formatFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, y)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// String renders the figure's data table.
func (f *Figure) String() string { return f.Table().String() }

// XRange returns the minimum and maximum x across all series, and whether
// any point exists.
func (f *Figure) XRange() (min, max float64, ok bool) {
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !ok {
				min, max, ok = p.X, p.X, true
				continue
			}
			if p.X < min {
				min = p.X
			}
			if p.X > max {
				max = p.X
			}
		}
	}
	return
}
