package core

import (
	"repro/internal/energy"
	"repro/internal/host"
)

// CtrlISP is the in-SSD-controller processing baseline: state pages leave
// the dies over the channel buses into controller DRAM, a few embedded
// cores run the optimizer kernel, and updated pages travel back to be
// programmed. It avoids PCIe for the bulk state but pays full channel-bus
// traffic and is throttled by the controller's weak memory system — the
// middle design point between host offload and on-die processing.
type CtrlISP struct {
	cfg Config
}

// NewCtrlISP builds the baseline for a configuration.
func NewCtrlISP(cfg Config) *CtrlISP { return &CtrlISP{cfg: cfg} }

// Name implements System.
func (s *CtrlISP) Name() string { return "ctrl-isp" }

// Run implements System.
func (s *CtrlISP) Run() (*Report, error) {
	cfg := s.cfg
	run, err := newRig(cfg, pipeCtrl)
	if err != nil {
		return nil, err
	}
	run.ctrl = host.NewCPU(run.eng, cfg.CtrlCPU)
	// Inbound gradients and outbound weights over PCIe, chunked.
	run.streamGrads()
	run.inflightCap = run.planeWindow()
	if err := run.simulate(s.Name()); err != nil {
		return nil, err
	}

	totalUnits := cfg.TouchedUnits()
	r := run.report(s.Name())
	r.PCIeBytes = (run.gradB + run.woutB) * totalUnits
	r.DRAMBytes = (2*run.residentB + run.gradB + run.woutB) * totalUnits
	return run.finish(r, energy.Activity{
		CPUOps: float64(totalUnits) * float64(run.elems) * float64(run.kernel.FlopsPerElem),
	}), nil
}
