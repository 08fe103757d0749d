package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// ClusterConfig describes data-parallel training over N workers, each with
// its own GPU and SSD, ZeRO-style: the optimizer state is sharded 1/N per
// device, gradients are ring-all-reduced before the sharded update, and
// updated working-precision weights are all-gathered afterwards.
type ClusterConfig struct {
	// Workers is the data-parallel degree.
	Workers int
	// InterconnectGBps is the per-worker all-reduce bandwidth (the ring
	// link rate — 25 for 200GbE, ~50 for HDR InfiniBand).
	InterconnectGBps float64
}

// DefaultCluster returns a 200GbE-class ring.
func DefaultCluster(workers int) ClusterConfig {
	return ClusterConfig{Workers: workers, InterconnectGBps: 25}
}

// Validate reports the first structural problem.
func (c ClusterConfig) Validate() error {
	if c.Workers < 1 || c.InterconnectGBps <= 0 {
		return fmt.Errorf("core: cluster config %+v", c)
	}
	return nil
}

// ClusterReport is the outcome of one data-parallel training step.
type ClusterReport struct {
	System  string
	Model   string
	Workers int

	// ShardOptStep is the per-device optimizer step over its 1/N shard.
	ShardOptStep sim.Time
	// AllReduce is the gradient ring-all-reduce; AllGather the weight
	// redistribution.
	AllReduce sim.Time
	AllGather sim.Time
	// FwdBwd is the per-worker compute (data parallel: full model, local
	// micro-batch).
	FwdBwd sim.Time
	// StepTime is the end-to-end global step; TokensPerSec counts the
	// global batch.
	StepTime     sim.Time
	TokensPerSec float64
	// Efficiency is TokensPerSec / (N × single-worker rate). It can
	// exceed 1: sharding divides the optimizer bottleneck by N while the
	// compute phase stays constant (the ZeRO effect). Collectives pull it
	// back down as N grows.
	Efficiency float64
}

// ShardParams is the parameter count each of workers devices owns when
// the state is sharded 1/N per device: ceil(params/workers).
func ShardParams(params int64, workers int) int64 {
	return int64(math.Ceil(float64(params) / float64(workers)))
}

// RunCluster prices one system under data-parallel scaling from two
// reports the caller simulated; it simulates nothing. shard is the system
// on cfg with Model.Params cut to ShardParams(Params, cc.Workers), and
// single the same system on cfg itself, whose rate Efficiency compares
// against. The collectives use the standard ring cost model (2(N−1)/N
// volume for all-reduce, (N−1)/N for all-gather).
func RunCluster(cfg Config, cc ClusterConfig, shard, single *Report) (*ClusterReport, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	for _, r := range []*Report{shard, single} {
		if !r.Feasible {
			return nil, fmt.Errorf("core: %s infeasible on shard: %s", r.System, r.Notes)
		}
	}

	spec := cfg.Spec()
	touched := float64(cfg.Model.Params) * cfg.Model.UpdateFraction()
	gradBytes := touched * float64(spec.GradBytes)
	woutBytes := touched * float64(spec.WeightOutBytes)
	n := float64(cc.Workers)
	bw := units.GBps(cc.InterconnectGBps)
	rep := &ClusterReport{
		System:       shard.System,
		Model:        cfg.Model.Name,
		Workers:      cc.Workers,
		ShardOptStep: shard.OptStepTime,
		FwdBwd:       cfg.GPU.ComputeTime(cfg.Model.StepFlops(cfg.Batch)),
	}
	if cc.Workers > 1 {
		rep.AllReduce = bw.TransferTimeF(2 * (n - 1) / n * gradBytes)
		rep.AllGather = bw.TransferTimeF((n - 1) / n * woutBytes)
	}

	// Serial composition with the same scalar overlap applied to the
	// optimizer phase as in the single-device model.
	hidden := rep.FwdBwd.Scale(cfg.OverlapFraction)
	step := func(exposed sim.Time) sim.Time {
		if exposed < 0 {
			exposed = 0
		}
		return rep.FwdBwd + exposed
	}
	rep.StepTime = step(rep.ShardOptStep + rep.AllReduce + rep.AllGather - hidden)
	tokens := float64(cfg.Model.BatchTokens(cfg.Batch))
	rep.TokensPerSec = tokens * n / rep.StepTime.Seconds()

	// Efficiency vs N× the single-worker rate.
	singleRate := tokens / step(single.OptStepTime-hidden).Seconds()
	rep.Efficiency = rep.TokensPerSec / (n * singleRate)
	return rep, nil
}
