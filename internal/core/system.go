package core

import (
	"fmt"

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

// NewSystem constructs a system by name: "optimstore", "hostoffload",
// "interleaved", "ctrlisp" or "gpuresident". It also accepts each
// system's own Name(), so a report's system name round-trips.
func NewSystem(name string, cfg Config) (System, error) {
	switch name {
	case "optimstore":
		return NewOptimStore(cfg), nil
	case "hostoffload":
		return NewHostOffload(cfg), nil
	case "interleaved":
		return NewInterleavedOffload(cfg), nil
	case "ctrlisp", "ctrl-isp":
		return NewCtrlISP(cfg), nil
	case "gpuresident", "gpu-resident":
		return NewGPUResident(cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown system %q", name)
	}
}

// SystemNames lists the systems in presentation order.
func SystemNames() []string {
	return []string{"gpuresident", "hostoffload", "interleaved", "ctrlisp", "optimstore"}
}

// future is a one-shot completion records wait on: a gradient chunk
// reaching the device, or an offload batch's gradients becoming available
// on the host. Waiter lists come from, and return to, the rig's spare
// lists, so waiting allocates nothing once warm.
type future struct {
	r       *rig
	done    bool
	waiters []func()
	bytes   int64    // a chunk's size on the link; 0 for host-side gradients
	start   sim.Time // when the chunk's transfer was posted, for its span
}

// resolve runs every waiter in arrival order.
func (f *future) resolve() {
	f.done = true
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		w()
	}
	if cap(ws) > 0 {
		clear(ws)
		f.r.spareWaiters = append(f.r.spareWaiters, ws[:0])
	}
}

// then runs fn once f resolves, at once if it already has.
//
//simlint:hotpath
func (f *future) then(fn func()) {
	if f.done {
		fn()
		return
	}
	if spare := f.r.spareWaiters; f.waiters == nil && len(spare) > 0 {
		f.waiters = spare[len(spare)-1]
		f.r.spareWaiters = spare[:len(spare)-1]
	}
	//simlint:allow hotalloc amortized waiter-list growth; resolved lists are recycled
	f.waiters = append(f.waiters, fn)
}

// landed records the chunk's transfer span and resolves f.
func (f *future) landed() {
	f.r.span("grad-transfer", f.start)
	f.resolve()
}

// gradSchedule returns the simulated-window availability time of each
// gradient chunk under layer-wise overlap: the forward pass completes,
// then the backward pass emits gradients chunk by chunk. Times are scaled
// into the simulation window (every stage is linear in units, so the
// window pipeline is an exact miniature). Without LayerwiseOverlap all
// chunks are available at time zero.
func gradSchedule(cfg Config, nChunks int64) []sim.Time {
	avail := make([]sim.Time, nChunks)
	if !cfg.LayerwiseOverlap {
		return avail
	}
	total := float64(cfg.GPU.ComputeTime(cfg.Model.StepFlops(cfg.Batch)))
	fwd := total / 3
	bwd := total - fwd
	scale := cfg.ScaleFactor()
	for k := int64(0); k < nChunks; k++ {
		t := (fwd + bwd*float64(k+1)/float64(nChunks)) / scale
		avail[k] = units.Nanos(t)
	}
	return avail
}

// endToEnd fills the end-to-end fields of a report: forward+backward
// compute on the GPU, optimizer step partially hidden under it.
func (c Config) endToEnd(r *Report) {
	fwdBwd := c.GPU.ComputeTime(c.Model.StepFlops(c.Batch))
	r.FwdBwdTime = fwdBwd
	if c.LayerwiseOverlap {
		// The simulation already spans fwd+bwd (gradient availability) plus
		// the optimizer pipeline: OptStepTime holds the full span here.
		r.StepTime = r.OptStepTime
		if r.StepTime < fwdBwd {
			r.StepTime = fwdBwd
		}
		r.OptStepTime = r.StepTime - fwdBwd // exposed optimizer cost
	} else {
		hidden := fwdBwd.Scale(c.OverlapFraction)
		exposed := r.OptStepTime - hidden
		if exposed < 0 {
			exposed = 0
		}
		r.StepTime = fwdBwd + exposed
	}
	if r.StepTime > 0 {
		r.TokensPerSec = float64(c.Model.BatchTokens(c.Batch)) /
			r.StepTime.Seconds()
	}
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
