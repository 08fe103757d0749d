package core

import (
	"repro/internal/layout"
	"repro/internal/optim"
)

// The systems table: one row per design point of the comparison. A row
// declares a system's two name spellings, the pipeline it simulates, the
// mandatory traffic of one update unit, where its update kernel runs, its
// admission window and its roofline-sandwich constant. NewSystem, the
// rooflines, the energy floors, the reports and the invariant registry's
// conservation checks all derive from the row, and nothing else branches
// on a system's identity: a new system is one row, plus a pipeline kind
// in unit.go if its data path is new. The pipelines themselves never read
// a row's traffic; the counters they produce are the independent evidence
// the conservation invariants audit against it.

// Keys of the systems table: the constructor names NewSystem accepts.
const (
	SystemGPUResident = "gpuresident"
	SystemHostOffload = "hostoffload"
	SystemInterleaved = "interleaved"
	SystemCtrlISP     = "ctrlisp"
	SystemOptimStore  = "optimstore"
)

// systems is the table, in presentation order.
var systems = []Design{
	// The no-offload reference: weights, gradients and optimizer state
	// all live in GPU memory and the update is a single HBM-bound kernel.
	// It is the fastest design whenever it fits; the reproduction's point
	// is the crossover once state exceeds device memory. Evaluated in
	// closed form, so its report is its roofline floor.
	{
		key: SystemGPUResident, name: "gpu-resident", pipe: pipeAnalytic,
		hbm:  traffic{resident: 2, grad: 1, wout: 1},
		exec: execGPU, k: 1.0005,
	},
	// The ZeRO-Infinity-style baseline: every step the full resident
	// state is read out over the channel buses and PCIe, updated by the
	// GPU in batches and written back. Gradients are already on the GPU.
	{
		key: SystemHostOffload, name: "hostoffload", pipe: pipeOffload,
		toDev: traffic{resident: 1}, fromDev: traffic{resident: 1}, bus: traffic{resident: 2},
		dram: traffic{resident: 2}, hbm: traffic{resident: 2, grad: 1, wout: 1},
		exec: execGPU, admit: (*rig).planeWindow, k: 2.5,
	},
	// The Deep-Optimizer-States-style baseline (Maurya et al.):
	// hostoffload's traffic, but the host CPU updates the state in K
	// subgroups (Config.InterleaveDepth) whose prefetch, update and
	// write-back interleave over streaming DMA. Only three subgroups are
	// host-resident at once, so large K shrinks the staging footprint but
	// narrows the pipeline.
	{
		key: SystemInterleaved, name: "interleaved", pipe: pipeOffload,
		toDev: traffic{resident: 1}, fromDev: traffic{resident: 1}, bus: traffic{resident: 2},
		dram: traffic{resident: 2, grad: 1, wout: 1},
		exec: execHostCPU, stream: true, admit: (*rig).subgroupWindow, k: 2.5,
	},
	// The in-controller processing baseline: state pages leave the dies
	// over the channel buses into controller DRAM, a few embedded cores
	// run the kernel, and the updated pages travel back. It avoids PCIe
	// for the bulk state but pays full bus traffic and the controller's
	// weak memory system.
	{
		key: SystemCtrlISP, name: "ctrl-isp", pipe: pipeCtrl,
		toDev: traffic{grad: 1}, fromDev: traffic{wout: 1}, bus: traffic{resident: 2},
		dram: traffic{resident: 2, grad: 1, wout: 1},
		exec: execCtrl, admit: (*rig).planeWindow, k: 2.5,
	},
	// The paper's system: gradients stream to the SSD, each die's
	// processing unit reads the co-located state pages, runs the kernel
	// and programs the pages back in place. Only gradients and working
	// weights cross the buses and PCIe; the read-modify-write runs at
	// aggregate plane bandwidth.
	{
		key: SystemOptimStore, name: "optimstore", pipe: pipeOnDie,
		toDev: traffic{grad: 1}, fromDev: traffic{wout: 1}, bus: traffic{grad: 1, wout: 1},
		dram:    traffic{grad: 1, wout: 1},
		rereads: true, reduce: 128,
		exec: execODP, admit: (*rig).planeWindow, k: 2.5,
	},
}

// Design is one row of the systems table.
type Design struct {
	key  string // constructor name, the key NewSystem and the invariants use
	name string // display name, the Report.System spelling
	pipe pipelineKind

	// Mandatory traffic of one update unit: PCIe per direction, the
	// channel buses (both directions summed) and the host-side DRAM and
	// HBM the step moves.
	toDev, fromDev, bus, dram, hbm traffic
	// rereads: the media is read once per kernel pass (an on-die kernel
	// re-senses its pages), not once per step.
	rereads bool
	// reduce is the bus bytes per unit a multi-pass kernel's cross-die
	// reduction adds (LAMB's trust ratio: 64 B each way).
	reduce int64

	exec   executor
	stream bool             // offload link verbs: streaming DMA, else chunked
	admit  func(*rig) int64 // admission window

	// k is the roofline sandwich's upper factor: simulated step time must
	// stay within k× the analytic floor (plus window ramp slack). The
	// worst sim/floor ratio over the 200-config Colocated sweep is ≈2.1
	// for each simulated system, so 2.5 leaves ~20% headroom; the analytic
	// reference reports its floor.
	k float64
}

// executor is where a row's update kernel runs.
type executor uint8

const (
	execODP     executor = iota // one on-die processing unit per die
	execCtrl                    // the controller's embedded cores
	execGPU                     // the GPU, streaming through HBM
	execHostCPU                 // the host CPU, streaming through DRAM
)

// traffic is a per-unit byte count as small integer coefficients over
// the unit's resident, gradient and output-weight bytes.
type traffic struct{ resident, grad, wout int64 }

// bytes prices t over whole-byte per-unit sizes.
func (t traffic) bytes(resident, grad, wout int64) int64 {
	return t.resident*resident + t.grad*grad + t.wout*wout
}

// per prices t over q's per-unit sizes. The integer gradient and weight
// bytes are summed before the fractional resident term is added, the
// association the floors have always used; the pins hold it bit-exact.
func (t traffic) per(q quantities) float64 {
	return float64(t.resident)*q.resident + float64(t.grad*q.grad+t.wout*q.wout)
}

// plus sums two traffic shapes.
func (t traffic) plus(o traffic) traffic {
	return traffic{t.resident + o.resident, t.grad + o.grad, t.wout + o.wout}
}

// quantities are what a row's coefficients and floors are priced over,
// derived from a configuration once: the units one step touches, each
// unit's size and the update kernel. A simulated row's unit is a page of
// master weights with page-rounded state; the analytic row's is one
// parameter with its byte-exact footprint.
type quantities struct {
	cfg                    *Config
	kernel                 optim.Kernel
	units, elems, resident float64
	grad, wout             int64
}

func (d *Design) quantities(cfg *Config) quantities {
	q := quantities{cfg: cfg, kernel: kernelFor(*cfg)}
	if d.pipe == pipeAnalytic {
		spec := cfg.Spec()
		q.units = float64(cfg.Model.Params) * cfg.Model.UpdateFraction()
		q.elems = 1
		q.resident = spec.ResidentBytes()
		q.grad, q.wout = int64(spec.GradBytes), int64(spec.WeightOutBytes)
		return q
	}
	q.units = float64(cfg.TouchedUnits())
	q.elems = float64(cfg.ElemsPerPage())
	q.resident = float64(cfg.ResidentBytesPerUnit())
	q.grad, q.wout = cfg.GradBytesPerUnit(), cfg.WeightOutBytesPerUnit()
	return q
}

// LookupSystem returns the row named by a constructor key or a display
// name.
func LookupSystem(name string) (*Design, bool) {
	for i := range systems {
		if d := &systems[i]; d.key == name || d.name == name {
			return d, true
		}
	}
	return nil, false
}

// SystemNames lists the table's keys in presentation order.
func SystemNames() []string {
	names := make([]string, len(systems))
	for i := range systems {
		names[i] = systems[i].key
	}
	return names
}

// SimulatedSystems lists the keys of the rows that run the discrete-event
// pipeline, in presentation order.
func SimulatedSystems() []string {
	var names []string
	for i := range systems {
		if systems[i].Simulated() {
			names = append(names, systems[i].key)
		}
	}
	return names
}

// Simulated reports whether the row runs the discrete-event pipeline; the
// analytic row has no device, no window counters and may be infeasible.
func (d *Design) Simulated() bool { return d.pipe != pipeAnalytic }

// SandwichK is the row's roofline-sandwich upper factor.
func (d *Design) SandwichK() float64 { return d.k }

// WindowTraffic is the traffic a configuration's simulated window must
// carry, unscaled.
type WindowTraffic struct {
	PCIeToDev, PCIeFromDev int64
	Bus                    int64
	NANDRead, NANDProgram  int64
}

// Window computes the row's mandatory traffic over cfg's simulated window:
// every resident page read once per pass and programmed once, and the
// row's per-unit link and bus bytes. It is zero for the analytic row.
func (d *Design) Window(cfg Config) WindowTraffic {
	return d.window(d.quantities(&cfg))
}

func (d *Design) window(q quantities) WindowTraffic {
	if !d.Simulated() {
		return WindowTraffic{}
	}
	n := q.cfg.SimUnits()
	res, grad, wout := int64(q.resident), q.grad, q.wout
	passes := d.readPasses(q.kernel)
	w := WindowTraffic{
		PCIeToDev:   n * d.toDev.bytes(res, grad, wout),
		PCIeFromDev: n * d.fromDev.bytes(res, grad, wout),
		Bus:         n * d.bus.bytes(res, grad, wout),
		NANDRead:    n * res * passes,
		NANDProgram: n * res,
	}
	if passes > 1 {
		w.Bus += n * d.reduce
	}
	return w
}

// readPasses is how often the step reads each resident page under a
// kernel.
func (d *Design) readPasses(k optim.Kernel) int64 {
	if d.rereads {
		return int64(k.ReadPasses)
	}
	return 1
}

// BusExact reports whether Window's bus bytes are exact under a layout,
// not just a floor: an on-die update bounces a scattered layout's
// mis-placed pages over the buses on top; the other pipelines move every
// resident page over the bus wherever it lives.
func (d *Design) BusExact(l layout.Strategy) bool {
	return d.pipe != pipeOnDie || l == layout.Colocated
}
