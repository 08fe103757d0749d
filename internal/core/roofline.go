package core

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Roofline is the analytic lower bound of one optimizer step for each
// system: the slowest of the interfaces the step must cross. The
// discrete-event simulation can only add queueing and dependency stalls on
// top, so `floor ≤ simulated ≤ k·floor` (small k) is the package's
// model-sanity invariant — a simulated time below the floor means the
// simulator is dropping work; far above it means an accidental
// serialization. The invariant registry (internal/invariant) machine-checks
// this sandwich for every system across swept configurations.
type Roofline struct {
	PCIe    sim.Time // external link occupancy (busier direction)
	Bus     sim.Time // aggregate channel-bus occupancy
	Media   sim.Time // plane-level read+program occupancy
	Compute sim.Time // update-kernel occupancy (ODP, controller CPU or GPU)
}

// Floor returns the binding constraint.
func (r Roofline) Floor() sim.Time {
	f := r.PCIe
	for _, t := range []sim.Time{r.Bus, r.Media, r.Compute} {
		if t > f {
			f = t
		}
	}
	return f
}

// Binding names the binding constraint, for reports and regression tests.
// Ties resolve to the first name in pcie, bus, media, compute order.
func (r Roofline) Binding() string {
	candidates := []struct {
		name string
		t    sim.Time
	}{{"pcie", r.PCIe}, {"bus", r.Bus}, {"media", r.Media}, {"compute", r.Compute}}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.t > best.t {
			best = c
		}
	}
	return best.name
}

// RooflineFor computes the analytic bound for a system by its table key
// or display name. ok is false for unknown names.
func RooflineFor(system string, cfg Config) (r Roofline, ok bool) {
	d, ok := LookupSystem(system)
	if !ok {
		return Roofline{}, false
	}
	return d.roofline(d.quantities(&cfg)), true
}

// roofline prices a row's mandatory traffic at each interface it crosses.
// The multi-pass kernel's bus reduction (Design.reduce) is left out, so
// the floor stays a valid, if looser, bound for LAMB.
func (d *Design) roofline(q quantities) Roofline {
	cfg := q.cfg
	var r Roofline
	if d.Simulated() {
		// PCIe is full duplex: the busier direction binds.
		ext := float64(cfg.Link.EffectiveGBps())
		r.PCIe = units.Nanos(maxf(q.units*d.toDev.per(q)/ext, q.units*d.fromDev.per(q)/ext))
		// The channel buses are half duplex: both directions add.
		r.Bus = cfg.SSD.ChannelMBps().Bps().TransferTimeF(q.units * d.bus.per(q))
		// Media: each unit's pages are read (per pass) and programmed
		// once, spread across all planes. Reads and programs of one page
		// share its plane, so their times add.
		perPlanePages := q.units * float64(cfg.Comps()) / float64(cfg.SSD.Geometry().Planes())
		passes := float64(d.readPasses(q.kernel))
		tR := float64(cfg.SSD.Nand.ReadLatency)
		tP := float64(cfg.SSD.Nand.ProgramLatency)
		r.Media = units.Nanos(perPlanePages * (passes*tR + tP))
	}
	r.Compute = d.exec.floor(q, d)
	return r
}

// floor is the executor's compute floor over the step's touched units.
// Each kernel roofline prices the row's own memory traffic: the GPU's HBM
// bytes, the controller's and host CPU's DRAM bytes.
func (e executor) floor(q quantities, d *Design) sim.Time {
	cfg := q.cfg
	flops := float64(q.kernel.FlopsPerElem)
	switch e {
	case execODP:
		// Spread across the dies.
		dies := float64(cfg.SSD.Geometry().Dies())
		return units.Nanos(q.units / dies * float64(cfg.ODP.ComputeTime(int(q.elems), q.kernel.FlopsPerElem)))
	case execCtrl:
		// One serial engine: per-unit roofline times sum.
		perUnit := cfg.CtrlCPU.KernelTime(q.elems*flops, d.dram.per(q))
		return units.Nanos(q.units * float64(perUnit))
	case execGPU:
		// Batch roofline times sum to at least the whole-step roofline.
		return cfg.GPU.KernelTime(q.units*q.elems*flops, q.units*d.hbm.per(q))
	default: // execHostCPU
		return cfg.HostCPU.KernelTime(q.units*q.elems*flops, q.units*d.dram.per(q))
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
