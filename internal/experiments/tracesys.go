package experiments

import (
	"strings"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tracing"
)

// tracedSystem pairs one system's report with the trace its run recorded.
// It surfaces both counts to the runner summary.
type tracedSystem struct {
	rep *core.Report
	tr  *tracing.Trace
}

func (t tracedSystem) EventCount() int64      { return t.rep.EventCount() }
func (t tracedSystem) TraceEventCount() int64 { return int64(t.tr.Len()) }

// TraceSystems runs every system plus the checkpoint comparison on
// the default configuration with per-job event tracing enabled, and
// returns the trace-derived metrics as a regular experiment Result
// together with the recorded traces in run order, ready for
// tracing.WriteChrome. Each job owns its engine and its trace; jobs fan
// across the worker pool, but because traces are assembled in submission
// order the returned slice — and any file serialized from it — is
// byte-identical at every Parallel width.
func TraceSystems(opts Options) (*Result, []*tracing.Trace, runner.Summary, error) {
	model := dnn.GPT13B()
	cfg := baseConfig(opts, model)
	names := core.SystemNames()
	results := runner.Map(opts.Parallel, names, func(n string) (tracedSystem, error) {
		c := cfg
		tr := tracing.New(n)
		c.Trace = tr
		r, err := runSystem(opts, n, c)
		if err != nil {
			return tracedSystem{}, err
		}
		return tracedSystem{rep: r, tr: tr}, nil
	})
	summary := runner.Summarize(results)
	if err := runner.FirstErr(results); err != nil {
		return nil, nil, summary, err
	}
	traces := make([]*tracing.Trace, 0, len(names)+1)
	for _, v := range runner.Values(results) {
		traces = append(traces, v.tr)
	}

	// The checkpoint comparison is analytic and cheap; run it inline.
	ctr := tracing.New("checkpoint")
	ccfg := cfg
	ccfg.Trace = ctr
	if _, err := core.Checkpoint(ccfg); err != nil {
		return nil, nil, summary, err
	}
	traces = append(traces, ctr)

	// Reports aggregate over the coarse resources (phases, PCIe, channel
	// buses, ODP units, controller); per-plane tracks stay in the Chrome
	// file but would swamp a printed table with hundreds of rows.
	coarse := make([]*tracing.Trace, len(traces))
	for i, tr := range traces {
		coarse[i] = tr.Filter(func(track string) bool {
			return !strings.Contains(track, "/plane")
		})
	}
	res := &Result{
		ID:     "TRACE",
		Title:  "Traced system comparison (" + model.Name + ")",
		Tables: []*stats.Table{tracing.SummaryTable(coarse...)},
	}
	// One utilization timeline per simulated system: where each resource's
	// busy time sits within the step, the phase-overlap view the paper's
	// analysis rests on.
	for _, tr := range coarse {
		if fig := tracing.UtilizationTimeline(tr, "hold", 32); len(fig.Series) > 0 {
			res.Figures = append(res.Figures, fig)
		}
	}
	return res, traces, summary, nil
}
