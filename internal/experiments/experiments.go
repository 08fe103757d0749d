// Package experiments regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md §3). Each experiment is a
// declarative Spec (specs.go) that one executor (spec.go) turns into
// tables and figures, shared by the cmd/optimstore CLI and the HTML
// report (internal/report) so both always report the same numbers.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks simulation windows so the whole suite runs in seconds;
	// the full setting tightens extrapolation at ~10× the runtime.
	Quick bool

	// Parallel is the worker-pool width used to fan independent simulation
	// points (systems, sweep cells, experiments) across CPUs. <= 0 means
	// one worker per CPU; 1 reproduces fully sequential execution. Every
	// point owns its engine and results are assembled in submission order,
	// so outputs are identical at any width.
	Parallel int

	// Fault, when enabled, arms the seed-driven fault storm on every
	// simulated experiment point (the CLI's -fault flag); Checkpoint
	// selects the checkpoint policy priced into every report (-checkpoint).
	// F20 sweeps policies itself and only inherits the storm.
	Fault      fault.Spec
	Checkpoint fault.Policy

	// CheckInvariants audits every simulated report against the registered
	// physical invariants (internal/invariant): conservation, roofline
	// sandwich, structural sanity. Violations are returned as errors from
	// runSystem, so a miscalibrated model fails the experiment instead of
	// silently producing a wrong table.
	CheckInvariants bool
}

// Result is the output of one experiment.
type Result struct {
	ID      string
	Title   string
	Tables  []*stats.Table
	Figures []*stats.Figure
}

// String renders every table (figures as their data tables).
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "===== %s: %s =====\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, f := range r.Figures {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// lookup returns the spec with the given ID.
func lookup(id string) (*Spec, bool) {
	i := slices.IndexFunc(specs, func(s Spec) bool { return s.ID == id })
	if i < 0 {
		return nil, false
	}
	return &specs[i], true
}

// IDs lists experiment identifiers in presentation order, which is the
// order of specs: tables before figures, numerically within each class.
func IDs() []string {
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = specs[i].ID
	}
	return ids
}

// Title returns an experiment's title and whether the ID is registered.
func Title(id string) (string, bool) {
	s, ok := lookup(id)
	if !ok {
		return "", false
	}
	return s.Title, true
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Result, error) {
	s, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	res, err := execute(s, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = s.Title
	return res, nil
}

// RunMany executes a set of experiments across the worker pool and returns
// their results in the requested order, plus the pool's run summary.
// Unknown IDs fail before any simulation starts.
func RunMany(ids []string, opts Options) ([]*Result, runner.Summary, error) {
	for _, id := range ids {
		if _, ok := lookup(id); !ok {
			return nil, runner.Summary{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
	}
	results := runner.Map(opts.Parallel, ids, func(id string) (*Result, error) {
		return Run(id, opts)
	})
	if err := runner.FirstErr(results); err != nil {
		return nil, runner.Summarize(results), err
	}
	return runner.Values(results), runner.Summarize(results), nil
}

// baseConfig is the shared default experiment point: 2048 simulated
// units, 256 in quick mode.
func baseConfig(opts Options, model dnn.Model) core.Config {
	cfg := core.DefaultConfig(model)
	cfg.MaxSimUnits = 2048
	if opts.Quick {
		cfg.MaxSimUnits = 256
	}
	cfg.Fault = opts.Fault
	cfg.Checkpoint = opts.Checkpoint
	return cfg
}
