package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/odp"
)

// OptimStore is the paper's system: gradients stream to the SSD, each NAND
// die's processing unit reads the co-located weight/state pages from its
// planes, executes the optimizer kernel, programs the updated pages back
// (log-structured, same plane), and returns working-precision weights.
// Only gradients and low-precision weights ever cross the channel bus and
// PCIe; the bulk read-modify-write runs at aggregate plane bandwidth.
type OptimStore struct {
	cfg Config
}

// NewOptimStore builds the system for a configuration.
func NewOptimStore(cfg Config) *OptimStore { return &OptimStore{cfg: cfg} }

// Name implements System.
func (s *OptimStore) Name() string { return "optimstore" }

// Run implements System.
func (s *OptimStore) Run() (*Report, error) {
	cfg := s.cfg
	run, err := newRig(cfg, pipeOnDie)
	if err != nil {
		return nil, err
	}
	// One compute unit per die.
	run.odp = make([][]*odp.Unit, cfg.SSD.Channels)
	for ch := range run.odp {
		run.odp[ch] = make([]*odp.Unit, cfg.SSD.DiesPerChannel)
		for die := range run.odp[ch] {
			run.odp[ch][die] = odp.NewUnit(run.eng, fmt.Sprintf("ch%d/die%d", ch, die), cfg.ODP)
		}
	}
	// Gradients stream in as chunked PCIe transfers (units wait on their
	// chunk's arrival); weights stream out the same way.
	run.streamGrads()
	run.inflightCap = run.planeWindow()
	if err := run.simulate(s.Name()); err != nil {
		return nil, err
	}
	totalUnits := cfg.TouchedUnits()
	r := run.report(s.Name())
	r.PCIeBytes = (run.gradB + run.woutB) * totalUnits
	r.DRAMBytes = r.PCIeBytes
	var odpFlops, odpUtil float64
	for _, row := range run.odp {
		for _, u := range row {
			odpFlops += float64(u.Flops())
			odpUtil += u.Utilization()
		}
	}
	r.ODPUtil = odpUtil / float64(len(run.odp)*len(run.odp[0]))
	return run.finish(r, energy.Activity{ODPOps: odpFlops * cfg.ScaleFactor()}), nil
}
