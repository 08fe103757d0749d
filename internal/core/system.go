package core

import (
	"fmt"
	"strings"

	"repro/internal/energy"
	"repro/internal/optim"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/units"
)

// System runs one experiment configuration and produces a Report.
type System interface {
	Name() string
	Run() (*Report, error)
}

// NewSystem builds the system a table key or display name names, so a
// report's system name round-trips.
func NewSystem(name string, cfg Config) (System, error) {
	d, ok := LookupSystem(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown system %q (want one of %s)",
			name, strings.Join(SystemNames(), ", "))
	}
	return instance{d, cfg}, nil
}

// instance is one row bound to a configuration.
type instance struct {
	d   *Design
	cfg Config
}

// Name implements System: the display name.
func (s instance) Name() string { return s.d.name }

// Run implements System.
func (s instance) Run() (*Report, error) {
	if s.d.Simulated() {
		return s.d.simulate(s.cfg)
	}
	return s.d.evaluate(s.cfg)
}

// simulate runs a simulated row: the rig, the row's executor and
// admission window, the window's simulation and report, then the row's
// host-side traffic over the full step.
func (d *Design) simulate(cfg Config) (*Report, error) {
	run, err := newRig(cfg, d.pipe)
	if err != nil {
		return nil, err
	}
	defer run.release()
	run.setup(d)
	if err := run.simulate(d.name); err != nil {
		return nil, err
	}
	r := run.report(d.name)
	touched := cfg.TouchedUnits()
	res, grad, wout := run.residentB, run.gradB, run.woutB
	r.PCIeBytes = d.toDev.plus(d.fromDev).bytes(res, grad, wout) * touched
	r.DRAMBytes = d.dram.bytes(res, grad, wout) * touched
	r.HBMBytes = d.hbm.bytes(res, grad, wout) * touched
	ops := d.exec.ops(d.quantities(&cfg))
	switch d.exec {
	case execODP:
		var odpFlops, odpUtil float64
		for i := range run.odp {
			odpFlops += float64(run.odp[i].Flops())
			odpUtil += run.odp[i].Utilization()
		}
		r.ODPUtil = odpUtil / float64(len(run.odp))
		ops = odpFlops * cfg.ScaleFactor()
	case execGPU:
		r.GPUUtil = run.gpu.Utilization()
	}
	var act energy.Activity
	d.exec.charge(&act, ops)
	return run.finish(r, act), nil
}

// evaluate runs the analytic row: its step is its roofline floor and its
// energy its energy floor, provided the whole training footprint (FP16
// weights and gradients plus the resident state — 16 B/param for Adam)
// and a 20% activation allowance fit GPU memory.
func (d *Design) evaluate(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := identity(d.name, &cfg)
	r.TotalUnits = cfg.TouchedUnits()
	spec := cfg.Spec()
	footprint := float64(spec.GradBytes+spec.WeightOutBytes) + spec.ResidentBytes()
	needBytes := footprint * float64(r.Params) * 1.2
	haveBytes := cfg.GPU.MemoryGB * units.BytesPerGB
	if needBytes > haveBytes {
		r.Notes = fmt.Sprintf("needs %.1f GB, GPU has %.0f GB", needBytes/units.BytesPerGB, cfg.GPU.MemoryGB)
		r.CheckpointPolicy = cfg.Checkpoint.String()
		return r, nil
	}
	r.Feasible = true
	q := d.quantities(&cfg)
	act := d.floorActivity(q)
	r.OptStepTime = d.roofline(q).Floor()
	r.SimTime = r.OptStepTime
	r.SimUnits = r.TotalUnits
	r.HBMBytes = int64(act.HBMBytes)
	r.WAF = 1
	// No event engine: the fused kernel is one synthetic span.
	if cfg.Trace != nil {
		cfg.Trace.Span(phaseTrack, "update", 0, r.OptStepTime)
	}
	evalEnergy(r, act)
	cfg.endToEnd(r)
	accountFaultsAnalytic(cfg, r, int64(footprint*float64(r.Params)))
	return r, nil
}

// future is a one-shot completion records wait on: a gradient chunk
// reaching the device, or an offload batch's gradients becoming available
// on the host. Waiter lists come from, and return to, the rig's spare
// lists, so waiting allocates nothing once warm. A chunk is the handler of
// its own transfer (Fire).
type future struct {
	r       *rig
	done    bool
	waiters []sim.Handler
	bytes   int64    // a chunk's size on the link; 0 for host-side gradients
	start   sim.Time // when the chunk's transfer was posted, for its span
}

// resolve fires every waiter in arrival order.
func (f *future) resolve() {
	f.done = true
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		w.Fire()
	}
	if cap(ws) > 0 {
		clear(ws)
		//simlint:allow hotalloc amortized spare-list growth; it holds at most one list per future
		f.r.spareWaiters = append(f.r.spareWaiters, ws[:0])
	}
}

// then fires h once f resolves, at once if it already has.
//
//simlint:hotpath
func (f *future) then(h sim.Handler) {
	if f.done {
		h.Fire()
		return
	}
	if spare := f.r.spareWaiters; f.waiters == nil && len(spare) > 0 {
		f.waiters = spare[len(spare)-1]
		f.r.spareWaiters = spare[:len(spare)-1]
	}
	//simlint:allow hotalloc amortized waiter-list growth; resolved lists are recycled
	f.waiters = append(f.waiters, h)
}

// Fire lands the chunk: it records the transfer span and resolves f.
func (f *future) Fire() {
	f.r.span("grad-transfer", f.start)
	f.resolve()
}

// endToEnd fills the end-to-end fields of a report from its optimizer
// step: forward+backward compute on the GPU, the step stepTime composes,
// and the tokens it trains.
func (c Config) endToEnd(r *Report) {
	r.FwdBwdTime = c.GPU.ComputeTime(c.Model.StepFlops(c.Batch))
	r.StepTime = c.stepTime(r.OptStepTime)
	if r.StepTime > 0 {
		r.TokensPerSec = float64(c.Model.BatchTokens(c.Batch)) /
			r.StepTime.Seconds()
	}
}

// stepTime composes one training step from an optimizer phase of opt:
// forward and backward on the GPU, then the part of opt they do not
// hide. The scalar model hides OverlapFraction of forward+backward.
// Under LayerwiseOverlap the step is a two-stage flow line: after the
// forward third, backward emits the step's n gradient chunks evenly over
// its two thirds, and the optimizer updates them in order at opt/n each.
// The last chunk's finish is linear in the chunk that opens the final
// busy stretch, so it is the larger of the two ends:
// fwd + max(bwd/n + opt, bwd + opt/n).
func (c *Config) stepTime(opt sim.Time) sim.Time {
	fwdBwd := c.GPU.ComputeTime(c.Model.StepFlops(c.Batch))
	if c.LayerwiseOverlap {
		per := c.GradChunkUnits()
		n := float64((c.TouchedUnits() + per - 1) / per)
		fwd := float64(fwdBwd) / 3
		bwd := float64(fwdBwd) - fwd
		o := float64(opt)
		return units.Nanos(fwd + max(bwd/n+o, bwd+o/n))
	}
	return fwdBwd + max(opt-fwdBwd.Scale(c.OverlapFraction), 0)
}

// evalEnergy converts a full-model activity into the report's breakdown.
func evalEnergy(r *Report, a energy.Activity) {
	r.Energy = energy.DefaultCosts().Evaluate(a)
}

// meanBusUtil averages the channel-bus utilisation across a device.
func meanBusUtil(dev *ssd.Device) float64 {
	cfg := dev.Config()
	var total float64
	for ch := 0; ch < cfg.Channels; ch++ {
		total += dev.Channel(ch).BusUtilization()
	}
	return total / float64(cfg.Channels)
}

// kernelFor returns the ODP kernel descriptor for the configured
// optimizer, with gradient-accumulation fold work priced in.
func kernelFor(cfg Config) optim.Kernel {
	return optim.KernelFor(cfg.Optimizer).WithAccum(cfg.Accum())
}
