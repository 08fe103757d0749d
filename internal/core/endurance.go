package core

import (
	"repro/internal/nand"
	"repro/internal/sim"
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
	// LifetimeDays converts steps to wall time at the step time
	// RunEndurance is given.
	LifetimeDays float64
}

// RunEndurance prices flash lifetime for a configuration, with the state
// region in the configuration's own cell mode; it simulates nothing. The
// WAF comes from SweepWAF on the full drive (a drive whose WAF that rule
// cannot decide is an error) and the lifetime from AnalyticLifetime, the
// pipeline the design-space search prices every point with. step is the end-to-end
// step time of the OptimStore system on cfg, taken from the report the
// caller already holds; it converts steps to days.
func RunEndurance(cfg Config, step sim.Time) (*EnduranceReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	waf, err := SweepWAF(cfg)
	if err != nil {
		return nil, err
	}
	steps, fits := AnalyticLifetime(cfg, waf)
	rep := &EnduranceReport{
		Model:      cfg.Model.Name,
		Optimizer:  cfg.Optimizer.String(),
		Cell:       cfg.SSD.Nand.Cell,
		StateBytes: cfg.StateBytes(),
		// Full-geometry capacity in the configuration's cell mode (not the
		// reduced simulation window): a real 8×4-die drive with 1024
		// blocks/plane.
		DeviceBytes: fullDrive(cfg).Geometry().TotalBytes(),
		Fits:        fits,
	}
	if !fits {
		return rep, nil
	}
	rep.SweepWAF = waf
	rep.ProgramBytesPerStep = float64(rep.StateBytes) * waf
	rep.LifetimeSteps = steps
	// Wall-clock lifetime at this configuration's training cadence.
	rep.LifetimeDays = steps / (86400 / step.Seconds())
	return rep, nil
}
