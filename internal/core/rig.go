package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/odp"
	"repro/internal/optim"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// phaseTrack is the track all model-phase spans are recorded on. Keeping
// every system's phases on one track makes traces from different systems
// directly comparable lane-for-lane in a Chrome/Perfetto view; resource
// activity (channel buses, dies, PCIe, ODP units) appears on per-resource
// tracks emitted by sim.Resource itself.
const phaseTrack = "phase"

// pipelineKind selects the per-unit pipeline a rig's unit records walk.
type pipelineKind uint8

const (
	pipeOnDie    pipelineKind = iota // update on the home die's ODP unit
	pipeCtrl                         // update in the controller
	pipeOffload                      // update on a host executor
	pipeAnalytic                     // no pipeline: evaluated in closed form
)

// rig is one simulated run's state: the engine, the device with the
// window preloaded, the host link, the executors, the admission counters
// and the freelists of the unit, component and batch records. Every
// record of the run points at it; DESIGN.md "Unit records" has the
// lifecycle.
type rig struct {
	cfg  *Config
	kind pipelineKind
	eng  *sim.Engine
	tr   sim.Tracer // nil when untraced
	dev  *ssd.Device
	geo  ssd.Geometry
	lay  *layout.Layout
	link *host.Link
	inj  *fault.Injector

	comps                   int
	elems                   int
	pageSize                int
	gradB, woutB, residentB int64
	kernel                  optim.Kernel

	// Admission: units [0, next) have started, completed have finished,
	// and at most inflightCap run at once.
	simUnits, next, completed, inflightCap int64

	// Gradient availability: one future per gradUnits units, a transfer
	// chunk on the device-side pipelines and a batch on host offload.
	grads       []future
	gradUnits   int64
	gradsPosted int

	// OnDie and Ctrl: the outbound weight stream (bytes not yet sent,
	// chunks on the link) and the executors.
	outPending  int64
	outInFlight int
	odp         [][]*odp.Unit // OnDie: one ODP unit per die
	ctrl        *host.CPU     // Ctrl: the controller's cores
	gpu         *host.GPU     // Offload on the GPU, for its utilization

	// Offload: the executor and link verbs, the phase names and the
	// batch being filled.
	exec         func(flops, bytes float64, done func())
	fromDev      func(n int64, done func())
	toDev        func(n int64, done func())
	fetchPhase   string
	execPhase    string
	filling      *batch
	readsArrived int64

	endTime   sim.Time
	finished  bool
	onSent    func() // r.sent, bound once
	onDrained func() // r.drained, bound once

	spareWaiters [][]func() // resolved futures' waiter lists, for reuse
	freeUnits    []*unit
	freeComps    []*compOp
	freeBatches  []*batch
}

// newRig validates cfg and builds the run every simulated system shares:
// engine and tracer, device, host link, layout, plane mapper, the
// preloaded window and the armed fault plan, in that order.
func newRig(config Config, kind pipelineKind) (*rig, error) {
	if err := config.Validate(); err != nil {
		return nil, err
	}
	cfg := &config
	eng := sim.NewEngine()
	if cfg.Trace != nil {
		eng.SetTracer(cfg.Trace)
	}
	dev := ssd.NewDevice(eng, cfg.SSD)
	geo := dev.Geometry()
	r := &rig{
		cfg:       cfg,
		kind:      kind,
		eng:       eng,
		tr:        eng.Tracer(),
		dev:       dev,
		geo:       geo,
		link:      host.NewLink(eng, cfg.Link),
		comps:     cfg.Comps(),
		elems:     cfg.ElemsPerPage(),
		pageSize:  geo.PageSize,
		gradB:     cfg.GradBytesPerUnit(),
		woutB:     cfg.WeightOutBytesPerUnit(),
		residentB: cfg.ResidentBytesPerUnit(),
		kernel:    kernelFor(*cfg),
		simUnits:  cfg.SimUnits(),
	}
	r.onSent, r.onDrained = r.sent, r.drained
	lay, err := layout.New(geo, r.comps, r.simUnits, cfg.Layout)
	if err != nil {
		return nil, err
	}
	if lay.LogicalPages() > dev.FTL().LogicalPages() {
		return nil, fmt.Errorf("core: window of %d pages exceeds device logical capacity %d — lower MaxSimUnits",
			lay.LogicalPages(), dev.FTL().LogicalPages())
	}
	r.lay = lay
	dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		dev.Preload(lpa)
	}
	r.inj = armFaults(eng, dev, *cfg)
	return r, nil
}

// setup builds the row's executor, wires its pipeline's gradient stream
// and link verbs, and sets its admission window.
func (r *rig) setup(d *Design) {
	cfg := r.cfg
	var exec func(flops, bytes float64, done func())
	switch d.exec {
	case execODP:
		// One compute unit per die.
		r.odp = make([][]*odp.Unit, cfg.SSD.Channels)
		for ch := range r.odp {
			r.odp[ch] = make([]*odp.Unit, cfg.SSD.DiesPerChannel)
			for die := range r.odp[ch] {
				r.odp[ch][die] = odp.NewUnit(r.eng, fmt.Sprintf("ch%d/die%d", ch, die), cfg.ODP)
			}
		}
	case execCtrl:
		r.ctrl = host.NewCPU(r.eng, cfg.CtrlCPU)
	case execGPU:
		r.gpu = host.NewGPU(r.eng, cfg.GPU)
		exec = r.gpu.Run
	case execHostCPU:
		exec = host.NewCPU(r.eng, cfg.HostCPU).Run
	}
	if r.kind == pipeOffload {
		r.offload(exec, d.stream, d.exec)
	} else {
		// Gradients stream in as chunked PCIe transfers (units wait on
		// their chunk's arrival); weights stream out the same way.
		r.postGrads(max(cfg.TransferChunkBytes/r.gradB, 1), r.gradB)
	}
	r.inflightCap = d.admit(r)
}

// planeWindow is the admission window of the device-side pipelines: ~4
// units in flight per plane-slot a unit occupies, so planes stay
// pipelined regardless of how many pages a unit has (SGD's single-page
// units need a 3× deeper window than Adam's).
func (r *rig) planeWindow() int64 {
	c := int64(4 * r.geo.Planes() / r.comps)
	if min := int64(4 * r.geo.Dies()); c < min {
		c = min
	}
	return c
}

// subgroupWindow is the interleaved design's admission window: only three
// subgroups may be host-resident at once (the one updating, the one
// prefetching, the one writing back), so at most 3·⌈units/K⌉ units are in
// flight. A degenerate partition still pipelines minimally.
func (r *rig) subgroupWindow() int64 {
	depth := int64(r.cfg.Depth())
	return max(3*((r.simUnits+depth-1)/depth), 4)
}

// offload sets up the host-offload pipeline: units whose states reach
// the host gather into batches of about one transfer chunk, and exec
// updates a batch once its gradients are available. The backward pass
// produces gradients into host memory, so their availability needs no
// transfer. Streaming DMA rides a standing descriptor ring, so segments
// pay wire occupancy without per-DMA setup; chunked DMA pays it per
// transfer.
func (r *rig) offload(exec func(flops, bytes float64, done func()), stream bool, e executor) {
	r.exec = exec
	if stream {
		r.fromDev, r.toDev, r.fetchPhase = r.link.StreamFromDevice, r.link.StreamToDevice, "prefetch"
	} else {
		r.fromDev, r.toDev, r.fetchPhase = r.link.FromDevice, r.link.ToDevice, "read"
	}
	r.execPhase = "cpu-batch"
	if e == execGPU {
		r.execPhase = "gpu-batch"
	}
	r.postGrads(max(r.cfg.TransferChunkBytes/r.residentB, 1), 0)
}

// postGrads posts the backward pass's gradients as one future per
// unitsPer units, available at gradSchedule's times; with bytesPerUnit
// set, each then crosses PCIe to the device. The arrivals go out in one
// ScheduleBatch call: the largest same-time burst of a run (hundreds of
// chunks at paper scale), which the engine's batch path amortizes into
// one heapify.
func (r *rig) postGrads(unitsPer, bytesPerUnit int64) {
	n := (r.simUnits + unitsPer - 1) / unitsPer
	avail := gradSchedule(*r.cfg, n)
	r.gradUnits = unitsPer
	r.grads = make([]future, n)
	items := make([]sim.Timed, n)
	next := r.nextGrads
	for k := range r.grads {
		r.grads[k].r = r
		r.grads[k].bytes = min(unitsPer, r.simUnits-int64(k)*unitsPer) * bytesPerUnit
		items[k] = sim.Timed{Delay: avail[k], Fn: next}
	}
	r.eng.ScheduleBatch(items)
}

// nextGrads makes the next future's gradients available, sending them
// over PCIe first when they are bound for the device. Availability times
// never decrease and equal times fire in posting order, so the k-th
// arrival is future k's.
func (r *rig) nextGrads() {
	f := &r.grads[r.gradsPosted]
	r.gradsPosted++
	if f.bytes == 0 {
		f.resolve()
		return
	}
	f.start = r.eng.Now()
	r.link.ToDevice(f.bytes, f.landed)
}

// simulate admits the first window of units, runs the engine dry and
// reports a run that never drained.
func (r *rig) simulate(name string) error {
	r.launch()
	r.eng.Run()
	if !r.finished {
		return fmt.Errorf("core: %s simulation wedged at %v (%d/%d units)",
			name, r.eng.Now(), r.completed, r.simUnits)
	}
	return nil
}

// launch starts units in index order while the admission window has room.
//
//simlint:hotpath
func (r *rig) launch() {
	for r.next < r.simUnits && r.next-r.completed < r.inflightCap {
		u := r.getUnit()
		u.idx = r.next
		r.next++
		u.begin()
	}
}

// unitDone retires one unit. On the device-side pipelines its updated
// weights join the outbound PCIe stream, which sends whole transfer
// chunks; the last unit flushes the remainder. The freed slot admits the
// next unit.
//
//simlint:hotpath
func (r *rig) unitDone() {
	chunk := r.cfg.TransferChunkBytes
	if r.kind != pipeOffload {
		for r.outPending += r.woutB; r.outPending >= chunk; r.outPending -= chunk {
			r.sendOut(chunk)
		}
	}
	r.completed++
	if r.completed == r.simUnits {
		if n := r.outPending; n > 0 {
			r.outPending = 0
			r.sendOut(n)
		} else {
			r.maybeDrain()
		}
	}
	r.launch()
}

// sendOut puts n bytes of weights on the link to the host.
func (r *rig) sendOut(n int64) {
	r.outInFlight++
	r.link.FromDevice(n, r.onSent)
}

// sent counts one outbound chunk across the link.
func (r *rig) sent() {
	r.outInFlight--
	r.maybeDrain()
}

// maybeDrain waits for the device's background work once every unit is
// done and its weights are across, then ends the run.
func (r *rig) maybeDrain() {
	if r.completed == r.simUnits && r.outInFlight == 0 {
		r.dev.Drain(r.onDrained)
	}
}

// drained is the run's final callback: the not-yet-fired faults are
// cancelled before the end time is read (see disarmFaults).
func (r *rig) drained() {
	disarmFaults(r.inj)
	r.endTime = r.eng.Now()
	r.finished = true
}

// report starts a simulated system's report with what every pipeline
// reports alike: the identity header, the window's totals, device traffic
// and time extrapolated to the full step, and link and bus utilization.
// The caller adds its host-side traffic and executor figures, then calls
// finish.
func (r *rig) report(name string) *Report {
	cfg := r.cfg
	scale := cfg.ScaleFactor()
	counts := r.dev.Counts()
	pageSize := float64(r.pageSize)
	rep := identity(name, cfg)
	rep.TotalUnits = cfg.TouchedUnits()
	rep.SimUnits = r.simUnits
	rep.SimTime = r.endTime
	rep.SimEvents = r.eng.Fired()
	rep.SimPCIeToDevBytes = int64(r.link.BytesToDevice())
	rep.SimPCIeFromDevBytes = int64(r.link.BytesFromDevice())
	// The step is throughput-bound: extrapolate the window linearly.
	rep.OptStepTime = r.endTime.Scale(scale)
	rep.BusBytes = int64(float64(counts.BytesIn+counts.BytesOut) * scale)
	rep.NANDReadBytes = int64(float64(counts.Reads) * pageSize * scale)
	rep.NANDProgramBytes = int64(float64(counts.Programs) * pageSize * scale)
	rep.WAF = r.dev.Stats().WAF
	rep.LinkUtil = r.link.Utilization()
	rep.BusUtil = meanBusUtil(r.dev)
	rep.Feasible = true
	return rep
}

// finish prices rep's energy from its traffic plus the executor work in
// act, then fills the end-to-end and fault figures.
func (r *rig) finish(rep *Report, act energy.Activity) *Report {
	cfg := r.cfg
	act.NANDReadBytes, act.NANDProgramBytes = float64(rep.NANDReadBytes), float64(rep.NANDProgramBytes)
	act.NANDEraseBytes = float64(r.dev.Counts().Erases) * float64(cfg.SSD.Nand.BlockBytes()) * cfg.ScaleFactor()
	act.BusBytes, act.PCIeBytes = float64(rep.BusBytes), float64(rep.PCIeBytes)
	act.DRAMBytes, act.HBMBytes = float64(rep.DRAMBytes), float64(rep.HBMBytes)
	evalEnergy(rep, act)
	cfg.endToEnd(rep)
	accountFaults(*cfg, rep, r.inj)
	return rep
}

// span records a phase span from start to now when the run is traced.
// Records keep each phase's start time and call span where the phase
// ends, before the phase's continuation runs.
func (r *rig) span(name string, start sim.Time) {
	if r.tr != nil {
		r.tr.Span(phaseTrack, name, start, r.eng.Now())
	}
}
