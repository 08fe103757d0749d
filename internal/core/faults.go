package core

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/units"
)

// checkpointTimes returns the analytic cost of moving the full optimizer
// state once: out over the host link (bounded by the narrower of PCIe and
// the aggregate channel buses) and die-internally via plane-local
// copyback. Both the standalone Checkpoint report and the fault
// accounting use it; bandwidth units are decimal end to end (see Checkpoint).
func checkpointTimes(cfg Config) (hostStream, inStorage sim.Time) {
	state := float64(cfg.StateBytes())
	extGBps := cfg.Link.EffectiveGBps()
	if busGBps := cfg.SSD.ChannelMBps().GBps(); busGBps < extGBps {
		extGBps = busGBps
	}
	hostStream = extGBps.TransferTimeF(state)

	n := cfg.SSD.Nand
	perPlane := units.RateBps(units.Bytes(n.PageSize), n.ReadLatency+n.ProgramLatency)
	agg := perPlane.Scale(float64(cfg.SSD.Geometry().Planes()))
	inStorage = agg.TransferTimeF(state)
	return hostStream, inStorage
}

// physBlocksPerPlane is the real device's per-plane block count: the
// simulated window shrinks ssd.Config's BlocksPerPlane, but recovery
// scans (and checkpointing sizes against) the full physical plane.
const physBlocksPerPlane = 1024

// faultCosts derives the device-wide fault/checkpoint cost model from a
// configuration. Scan is the power-loss mapping replay: one mapping-
// summary read per physical block of the real (non-windowed) geometry,
// all planes scanning in parallel.
func faultCosts(cfg Config) fault.Costs {
	hostStream, inStorage := checkpointTimes(cfg)
	return fault.Costs{
		HostStream: hostStream,
		InStorage:  inStorage,
		Scan:       cfg.SSD.Nand.ReadLatency * physBlocksPerPlane,
		Dies:       cfg.SSD.Geometry().Dies(),
	}
}

// armFaults arms the config's fault plan against a freshly-built device
// (call after preload, before the engine runs). Returns nil when
// injection is disabled; the nil path adds nothing to the run.
func armFaults(eng *sim.Engine, dev *ssd.Device, cfg Config) *fault.Injector {
	if !cfg.Fault.Enabled() {
		return nil
	}
	inj := &fault.Injector{}
	inj.Arm(eng, dev, cfg.Fault.Plan())
	return inj
}

// disarmFaults cancels the not-yet-fired remainder of a plan. It must run
// FIRST inside the drain handler, before the end time is captured: the
// cancelled events then never fire and never advance the clock, so a run
// whose remaining faults all land after completion stays byte-identical
// to a fault-free run.
func disarmFaults(inj *fault.Injector) {
	if inj != nil {
		inj.Disarm()
	}
}

// accountFaults fills a simulated system's fault and checkpoint fields.
// The policy prices one checkpoint per optimizer step (and, for the
// in-place policy, its NAND-program WAF cost). Every fired terminal fault
// prices a restore plus the step work redone from the crash position: a
// fault at FiredAt loses FiredAt/SimTime of the extrapolated step.
// CheckpointPolicy is set unconditionally so faulted and fault-free
// reports stay structurally comparable.
func accountFaults(cfg Config, r *Report, inj *fault.Injector) {
	r.CheckpointPolicy = cfg.Checkpoint.String()
	costs := faultCosts(cfg)
	state := cfg.StateBytes()
	r.CheckpointTime = costs.CheckpointTime(cfg.Checkpoint)
	if cfg.Checkpoint == fault.CheckpointInPlace {
		r.CheckpointProgramBytes = state
	}
	if inj == nil {
		return
	}
	for _, rec := range inj.Fired() {
		switch rec.Kind {
		case fault.PowerLoss:
			r.PowerLossFaults++
		case fault.DieFailure:
			r.DieFailFaults++
		case fault.ECCExhaust:
			// Live fault: its latency, relocations, and retirement WAF land
			// organically in the simulated window; count it and move on.
			r.ECCFaults++
			continue
		default:
			continue
		}
		var redo sim.Time
		if r.SimTime > 0 {
			frac := float64(rec.FiredAt) / float64(r.SimTime)
			if frac > 1 {
				frac = 1
			}
			redo = r.OptStepTime.Scale(frac)
		}
		r.RecoveryTime += costs.RestoreTime(cfg.Checkpoint, rec.Kind) + redo
		// Rolling resident state back to the checkpoint re-programs it.
		r.RecoveryProgramBytes += state
	}
}

// accountFaultsAnalytic prices the storm for the analytic GPU-resident
// reference: the SSD fault kinds do not apply (no device-resident state),
// but a power loss still costs a full PCIe re-stream of the training
// state from host checkpoint storage plus the redone step fraction.
// Events are counted over the analytic step window [0, OptStepTime].
func accountFaultsAnalytic(cfg Config, r *Report, stateBytes int64) {
	r.CheckpointPolicy = cfg.Checkpoint.String()
	stream := cfg.Link.EffectiveGBps().TransferTimeF(float64(stateBytes))
	if cfg.Checkpoint != fault.CheckpointNone {
		// Device-internal snapshots have no meaning here: any checkpoint is
		// a host-side stream.
		r.CheckpointTime = stream
	}
	if !cfg.Fault.Enabled() {
		return
	}
	for _, ev := range cfg.Fault.Plan() {
		if ev.Kind != fault.PowerLoss || ev.At > r.OptStepTime {
			continue
		}
		r.PowerLossFaults++
		var redo sim.Time
		if r.OptStepTime > 0 {
			redo = ev.At
		}
		r.RecoveryTime += stream + redo
	}
}
