package core

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// EnduranceReport answers the first question anyone asks about in-storage
// training: how long before the update stream wears the flash out? Every
// step programs the full resident state once (times WAF), so lifetime is
// set by cell endurance, device capacity, and the state footprint.
type EnduranceReport struct {
	Model     string
	Optimizer string
	Cell      nand.CellType

	// StateBytes is the resident optimizer state footprint.
	StateBytes int64
	// DeviceBytes is the full-geometry device capacity in this cell mode.
	DeviceBytes int64
	// Fits is false when the state does not fit the device at all.
	Fits bool

	// SweepWAF is the steady-state update WAF, decided analytically from
	// the full drive's geometry, over-provisioning and GC watermarks by
	// SweepWAF (ssd.Config.SweepWAF); no GC is simulated.
	SweepWAF float64
	// ProgramBytesPerStep = StateBytes × SweepWAF.
	ProgramBytesPerStep float64

	// LifetimeSteps is how many optimizer steps the device survives with
	// ideal wear levelling.
	LifetimeSteps float64
	// LifetimeDays converts steps to wall time using the end-to-end step
	// latency of the OptimStore system on this configuration.
	LifetimeDays float64
	// StepTime is the end-to-end step time used for LifetimeDays.
	StepTime sim.Time
}

// RunEndurance evaluates flash lifetime for a configuration with the state
// region in the given cell mode. The WAF comes from SweepWAF on the full
// drive; a drive whose WAF that rule cannot decide is an error.
func RunEndurance(cfg Config, cell nand.CellType) (*EnduranceReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	rep := &EnduranceReport{
		Model:     cfg.Model.Name,
		Optimizer: cfg.Optimizer.String(),
		Cell:      cell,
	}
	spec := cfg.Spec()
	rep.StateBytes = int64(float64(cfg.Model.Params) * spec.ResidentBytes())

	// Full-geometry capacity in the chosen cell mode (not the reduced
	// simulation window): a real 8×4-die drive with 1024 blocks/plane.
	rep.DeviceBytes = fullDrive(cfg, cell).Geometry().TotalBytes()
	usable := float64(rep.DeviceBytes) * (1 - cfg.SSD.OverProvision)
	rep.Fits = float64(rep.StateBytes) <= usable
	if !rep.Fits {
		return rep, nil
	}

	waf, err := SweepWAF(cfg, cell)
	if err != nil {
		return nil, err
	}
	rep.SweepWAF = waf
	rep.ProgramBytesPerStep = float64(rep.StateBytes) * waf

	// Lifetime: block erases per step spread across the whole device.
	rep.LifetimeSteps, _ = AnalyticLifetime(cfg, cell, waf)

	// Wall-clock lifetime at this configuration's training cadence.
	sys, err := NewSystem(SystemOptimStore, cfg)
	if err != nil {
		return nil, err
	}
	r, err := sys.Run()
	if err != nil {
		return nil, err
	}
	rep.StepTime = r.StepTime
	stepsPerDay := 86400.0 / r.StepTime.Seconds()
	rep.LifetimeDays = rep.LifetimeSteps / stepsPerDay
	return rep, nil
}

// measureUpdateWAFOn runs `steps` full update sweeps over devCfg's
// logical space and reports the write-amplification factor of everything
// after the first sweep (the first fills the log cold).
func measureUpdateWAFOn(devCfg ssd.Config, steps int) (float64, error) {
	if err := devCfg.Validate(); err != nil {
		return 0, err
	}
	eng := sim.NewEngine()
	dev := ssd.NewDevice(eng, devCfg)
	pages := dev.FTL().LogicalPages()
	for lpa := int64(0); lpa < pages; lpa++ {
		dev.Preload(lpa)
	}

	var baseHost, baseGC uint64
	for s := 0; s < steps; s++ {
		for lpa := int64(0); lpa < pages; lpa++ {
			dev.ProgramUpdate(lpa, nil)
		}
		wedged := true
		dev.Drain(func() { wedged = false })
		eng.Run()
		if wedged {
			return 0, fmt.Errorf("core: WAF measurement wedged at step %d", s)
		}
		if s == 0 {
			baseHost = dev.FTL().HostProgrammed()
			baseGC = dev.FTL().GCProgrammed()
		}
	}
	host := dev.FTL().HostProgrammed() - baseHost
	gc := dev.FTL().GCProgrammed() - baseGC
	if host == 0 {
		return 1, nil
	}
	return float64(host+gc) / float64(host), nil
}
