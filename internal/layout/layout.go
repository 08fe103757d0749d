// Package layout maps optimizer-state tensors onto the SSD's physical
// parallelism. The unit of placement is an "update unit": one page worth of
// parameters (PageSize/4 float32 elements) together with its optimizer
// state — `comps` resident pages in total (master weight page plus one page
// per state word).
//
// The placement strategy decides the core locality property of in-storage
// optimization: whether all pages of a unit live on one die (so the on-die
// unit can update them without any channel-bus traffic) and whether they
// sit on distinct planes (so the reads and programs overlap). Getting this
// wrong is what the F7 ablation quantifies.
package layout

import (
	"fmt"

	"repro/internal/ssd"
)

// Strategy selects a placement policy.
type Strategy int

// Placement policies.
const (
	// Colocated is the OptimStore layout: every page of a unit on the same
	// die, components spread across that die's planes, units round-robined
	// across dies.
	Colocated Strategy = iota
	// Linear is the naive log-append layout: pages round-robin across all
	// planes in LPA order, so a unit's components usually straddle dies.
	Linear
	// SplitByComponent shards each component (all weights, all first
	// moments, ...) across dies independently, the layout a tensor-
	// parallel host runtime would produce; a unit's pages are never
	// co-resident.
	SplitByComponent
)

// Strategies lists every policy, in presentation order.
func Strategies() []Strategy { return []Strategy{Colocated, Linear, SplitByComponent} }

// String names the policy.
func (s Strategy) String() string {
	switch s {
	case Colocated:
		return "colocated"
	case Linear:
		return "linear"
	case SplitByComponent:
		return "split"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Layout is a concrete placement of `units` update units of `comps`
// resident pages each onto a device geometry.
type Layout struct {
	geo      ssd.Geometry
	comps    int
	units    int64
	strategy Strategy
}

// New builds a layout. comps must be ≥ 1; the footprint must fit the
// device's logical page space (checked by the caller against its FTL).
func New(geo ssd.Geometry, comps int, units int64, s Strategy) (*Layout, error) {
	if comps < 1 {
		return nil, fmt.Errorf("layout: comps %d", comps)
	}
	if units < 1 {
		return nil, fmt.Errorf("layout: units %d", units)
	}
	switch s {
	case Colocated, Linear, SplitByComponent:
	default:
		return nil, fmt.Errorf("layout: unknown strategy %d", int(s))
	}
	return &Layout{geo: geo, comps: comps, units: units, strategy: s}, nil
}

// LogicalPages returns the total logical pages the layout occupies.
func (l *Layout) LogicalPages() int64 { return l.units * int64(l.comps) }

// LPA returns the logical page address of a unit's component. The LPA
// numbering is dense and strategy-independent; strategies differ only in
// physical placement.
func (l *Layout) LPA(unit int64, comp int) int64 {
	if unit < 0 || unit >= l.units || comp < 0 || comp >= l.comps {
		//simlint:allow hotalloc cold panic path; formatting happens only on a caller bug
		panic(fmt.Sprintf("layout: LPA(%d, %d) outside %d×%d", unit, comp, l.units, l.comps))
	}
	return unit*int64(l.comps) + int64(comp)
}

// Decompose inverts LPA.
func (l *Layout) Decompose(lpa int64) (unit int64, comp int) {
	if lpa < 0 || lpa >= l.LogicalPages() {
		panic(fmt.Sprintf("layout: lpa %d outside %d", lpa, l.LogicalPages()))
	}
	return lpa / int64(l.comps), int(lpa % int64(l.comps))
}

// PlaneIdx returns the device-global plane a unit's component is placed on.
func (l *Layout) PlaneIdx(unit int64, comp int) int {
	dies := l.geo.Dies()
	ppd := l.geo.PlanesPerDie
	switch l.strategy {
	case Colocated:
		// Units round-robin across dies; within a die, the component→plane
		// assignment rotates per unit so all planes carry equal load even
		// when comps < planes (otherwise a 3-page Adam unit would leave
		// plane 3 of every 4-plane die permanently idle).
		die := int(unit % int64(dies))
		rot := int(unit/int64(dies)) % ppd
		return die*ppd + (comp+rot)%ppd
	case Linear:
		lpa := l.LPA(unit, comp)
		return int(lpa % int64(l.geo.Planes()))
	case SplitByComponent:
		// Consecutive dies per component: a unit's components land on
		// different dies whenever comps <= dies.
		die := int((unit*int64(l.comps) + int64(comp)) % int64(dies))
		return die*ppd + comp%ppd
	default:
		panic("layout: unknown strategy")
	}
}

// PlaneMapper returns the lpa→plane function to install on the Device so
// first writes (or preloads) land where the layout dictates.
func (l *Layout) PlaneMapper() func(lpa int64) int {
	return func(lpa int64) int {
		unit, comp := l.Decompose(lpa)
		return l.PlaneIdx(unit, comp)
	}
}

// Placement describes where one unit's pages physically live.
type Placement struct {
	// Planes holds the device-global plane index per component.
	Planes []int
	// SameDie is true when every component is on one die — the property
	// that enables a purely on-die update.
	SameDie bool
	// HomeDie is the die of component 0 (where the kernel executes).
	HomeChannel, HomeDie int
	// DistinctPlanes counts how many different planes the components
	// occupy — the read/program overlap factor.
	DistinctPlanes int
}

// Placement computes the physical placement of one unit into p, reusing
// the storage of p.Planes, so placing units one after another allocates
// nothing once p.Planes holds Comps entries.
func (l *Layout) Placement(unit int64, p *Placement) {
	if cap(p.Planes) < l.comps {
		//simlint:allow hotalloc first placement into a record sizes its storage; the record keeps it
		p.Planes = make([]int, l.comps)
	}
	p.Planes = p.Planes[:l.comps]
	p.SameDie = true
	p.DistinctPlanes = 0
	homeDie := -1
	for c := 0; c < l.comps; c++ {
		idx := l.PlaneIdx(unit, c)
		p.Planes[c] = idx
		if !containsInt(p.Planes[:c], idx) {
			p.DistinctPlanes++
		}
		die := idx / l.geo.PlanesPerDie
		if homeDie == -1 {
			homeDie = die
		} else if die != homeDie {
			p.SameDie = false
		}
	}
	p.HomeChannel, p.HomeDie, _ = l.geo.PlaneLoc(p.Planes[0])
}

// containsInt reports whether xs holds x; a unit has a handful of
// components, so a scan beats a set.
func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ColocationFraction returns the fraction of units whose pages share a die
// — 1.0 for Colocated, lower for the ablation layouts. Sampled exactly
// over all units when units is small, else over a stride sample.
func (l *Layout) ColocationFraction() float64 {
	n := l.units
	stride := int64(1)
	if n > 4096 {
		stride = n / 4096
	}
	var same, total int64
	var p Placement
	for u := int64(0); u < n; u += stride {
		if l.Placement(u, &p); p.SameDie {
			same++
		}
		total++
	}
	return float64(same) / float64(total)
}
