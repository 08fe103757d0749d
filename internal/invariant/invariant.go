// Package invariant is the simulator's self-audit layer: a registry of
// machine-checkable properties every system model must satisfy on every
// configuration. Three families of checks live here:
//
//   - per-report properties (this file and properties.go): conservation of
//     bytes across each resource, the roofline sandwich
//     floor ≤ simulated ≤ k·floor, and structural report sanity. These run
//     on a single (config, report) pair and are cheap enough to enable on
//     every experiment run (see experiments.Options.CheckInvariants).
//   - metamorphic properties (metamorphic.go): relations between *runs* —
//     determinism under re-execution, monotonicity under added hardware
//     resources or grown models. These need extra simulations and run from
//     the test suite.
//   - the seeded config generator (configs.go): Configs(seed, n) yields
//     hundreds of feasible configurations so `go test ./internal/invariant`
//     sweeps the property set across the design space rather than a
//     handful of hand-picked points.
//
// Systems are keyed by their core.SystemNames keys — the constructor names
// core.NewSystem accepts — not by Report.System display names. What each
// property expects of a system comes from its row of core's systems table
// (core.LookupSystem), never from a per-system switch here.
package invariant

import (
	"fmt"

	"repro/internal/core"
)

// GPUResident is the analytic reference's key.
const GPUResident = core.SystemGPUResident

// Property is one checkable invariant. Check returns nil when the report
// satisfies the property for the given system and configuration, or a
// descriptive error naming what was violated and by how much.
type Property struct {
	// Name identifies the property in violation messages, e.g.
	// "pcie-conservation".
	Name string
	// Systems restricts the property to the listed constructor names; nil
	// means it applies to every system.
	Systems []string
	// Check evaluates the property. system is the constructor name the
	// report was produced under.
	Check func(system string, cfg core.Config, r *core.Report) error
}

func (p Property) appliesTo(system string) bool {
	if len(p.Systems) == 0 {
		return true
	}
	for _, s := range p.Systems {
		if s == system {
			return true
		}
	}
	return false
}

// registry holds the built-in properties, populated by properties.go.
// Order is deterministic: violations always report in registration order.
var registry []Property

// Register adds a property to the registry. Built-in properties register
// at init; tests may add scoped properties of their own.
func Register(p Property) {
	if p.Name == "" || p.Check == nil {
		panic("invariant: property needs a name and a check")
	}
	//simlint:allow globalstate registration-time registry append; properties.go registers at init, tests before running
	registry = append(registry, p)
}

// Properties returns the registered properties that apply to system, in
// registration order.
func Properties(system string) []Property {
	var out []Property
	for _, p := range registry {
		if p.appliesTo(system) {
			out = append(out, p)
		}
	}
	return out
}

// Check runs every applicable property against one (config, report) pair
// and returns the violations as human-readable strings, each prefixed with
// the property name. A nil return means the report is clean.
func Check(system string, cfg core.Config, r *core.Report) []string {
	var violations []string
	for _, p := range registry {
		if !p.appliesTo(system) {
			continue
		}
		if err := p.Check(system, cfg, r); err != nil {
			violations = append(violations, fmt.Sprintf("%s: %v", p.Name, err))
		}
	}
	return violations
}

// Audit runs Check and records the violations on the report itself
// (Report.Violations), where Run's callers read them. It returns the
// violations for convenience.
func Audit(system string, cfg core.Config, r *core.Report) []string {
	v := Check(system, cfg, r)
	r.Violations = append(r.Violations, v...)
	return v
}
