package invariant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
)

// Metamorphic properties: relations between runs rather than facts about
// one report. Each helper executes the extra simulations it needs, so
// these are test-suite material (the per-report registry stays cheap
// enough for production sweeps).

// Run constructs the named system and runs it. err is non-nil if the
// system could not be built or wedged mid-simulation.
func Run(system string, cfg core.Config) (*core.Report, error) {
	sys, err := core.NewSystem(system, cfg)
	if err != nil {
		return nil, err
	}
	r, err := sys.Run()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// CheckDeterminism runs the system twice on the same configuration and
// verifies the simulations are bit-identical: same event count, same
// simulated times, same traffic tallies. The engine is specified to be
// deterministic (events ordered by time, then insertion); any divergence
// means map-iteration order or a global source of entropy leaked into the
// model.
func CheckDeterminism(system string, cfg core.Config) error {
	a, err := Run(system, cfg)
	if err != nil {
		return err
	}
	b, err := Run(system, cfg)
	if err != nil {
		return err
	}
	type probe struct {
		name string
		a, b interface{}
	}
	probes := []probe{
		{"SimEvents", a.SimEvents, b.SimEvents},
		{"SimTime", a.SimTime, b.SimTime},
		{"OptStepTime", a.OptStepTime, b.OptStepTime},
		{"StepTime", a.StepTime, b.StepTime},
		{"BusBytes", a.BusBytes, b.BusBytes},
		{"NANDReadBytes", a.NANDReadBytes, b.NANDReadBytes},
		{"NANDProgramBytes", a.NANDProgramBytes, b.NANDProgramBytes},
		{"SimPCIeToDevBytes", a.SimPCIeToDevBytes, b.SimPCIeToDevBytes},
		{"SimPCIeFromDevBytes", a.SimPCIeFromDevBytes, b.SimPCIeFromDevBytes},
		{"WAF", a.WAF, b.WAF},
	}
	for _, p := range probes {
		if p.a != p.b {
			return fmt.Errorf("determinism: %s diverged across identical runs: %v vs %v",
				p.name, p.a, p.b)
		}
	}
	return nil
}

// resourceTol is the slack allowed on resource monotonicity: adding
// hardware must not slow the step by more than this fraction. A small
// allowance is needed because changing the topology also changes layout
// round-robin phase, admission-window depth and extrapolation granularity
// — discretization wiggle, not model error.
const resourceTol = 0.05

// MonotonicityViolation describes one failed metamorphic expectation.
type MonotonicityViolation struct {
	Mutation string
	Base     *core.Report
	Mutated  *core.Report
	Detail   string
}

func (v MonotonicityViolation) Error() string {
	return fmt.Sprintf("monotonicity/%s: %s", v.Mutation, v.Detail)
}

// CheckResourceMonotonicity verifies that adding hardware never slows the
// optimizer step beyond discretization tolerance: more channels, more dies
// per channel, and more PCIe lanes each weakly improve (or leave alone)
// the step time. Returns one violation per failed mutation.
func CheckResourceMonotonicity(system string, cfg core.Config) ([]MonotonicityViolation, error) {
	base, err := Run(system, cfg)
	if err != nil {
		return nil, err
	}
	mutations := []struct {
		name   string
		mutate func(*core.Config)
		// topology mutations change page placement, which only the
		// plane-balanced Colocated layout is guaranteed to benefit from —
		// Linear packs the window into the first planes regardless of how
		// many exist, so extra dies can legitimately shift (and worsen)
		// placement phase. Same reasoning as the roofline sandwich's
		// Colocated restriction.
		topology bool
	}{
		{"2x-channels", func(c *core.Config) { c.SSD.Channels *= 2 }, true},
		{"2x-dies", func(c *core.Config) { c.SSD.DiesPerChannel *= 2 }, true},
		{"2x-pcie", func(c *core.Config) { c.Link.GBps *= 2 }, false},
	}
	var out []MonotonicityViolation
	for _, m := range mutations {
		if m.topology && cfg.Layout != layout.Colocated {
			continue
		}
		mcfg := cfg
		m.mutate(&mcfg)
		mut, err := Run(system, mcfg)
		if err != nil {
			return nil, fmt.Errorf("%s under %s: %w", system, m.name, err)
		}
		if !base.Feasible || !mut.Feasible {
			continue
		}
		limit := float64(base.OptStepTime) * (1 + resourceTol)
		if float64(mut.OptStepTime) > limit {
			out = append(out, MonotonicityViolation{
				Mutation: m.name, Base: base, Mutated: mut,
				Detail: fmt.Sprintf("step %v grew to %v (allowed %.0f)",
					base.OptStepTime, mut.OptStepTime, limit),
			})
		}
	}
	return out, nil
}

// CheckModelMonotonicity verifies a strictly larger model never yields a
// faster optimizer step: doubling the parameter count must not shrink
// OptStepTime beyond discretization tolerance.
func CheckModelMonotonicity(system string, cfg core.Config) (*MonotonicityViolation, error) {
	base, err := Run(system, cfg)
	if err != nil {
		return nil, err
	}
	bigCfg := cfg
	bigCfg.Model.Params *= 2
	if !windowFits(bigCfg) {
		// Doubling a model that was smaller than the window cap can grow
		// the simulated window past the device slice; nothing to compare.
		return nil, nil
	}
	big, err := Run(system, bigCfg)
	if err != nil {
		return nil, fmt.Errorf("%s with doubled model: %w", system, err)
	}
	if !base.Feasible || !big.Feasible {
		return nil, nil
	}
	limit := float64(base.OptStepTime) * (1 - resourceTol)
	if float64(big.OptStepTime) < limit {
		return &MonotonicityViolation{
			Mutation: "2x-params", Base: base, Mutated: big,
			Detail: fmt.Sprintf("step shrank from %v to %v on a doubled model",
				base.OptStepTime, big.OptStepTime),
		}, nil
	}
	return nil, nil
}
