// Package tracing provides the standard recorder and sinks for the
// sim.Tracer observability hooks.
//
// A Trace records engine, resource, and model-phase activity as a flat
// event list in emission order. Because the simulation kernel is
// single-threaded and deterministic, the recorded list — and therefore
// every sink rendered from it — is bit-for-bit reproducible across runs
// and across parallel-runner widths, as long as each job records into its
// own Trace and traces are serialized in submission order.
//
// Two sinks are provided: WriteChrome renders the Chrome trace_event JSON
// format (loadable in chrome://tracing or https://ui.perfetto.dev), and
// the metrics helpers (SummaryTable, UtilizationTimeline) aggregate span
// activity into internal/stats tables and figures for reports.
package tracing

import "repro/internal/sim"

// Kind discriminates the three event shapes a Tracer can record.
type Kind uint8

const (
	// KindSpan is a completed [Start, End] interval on a track.
	KindSpan Kind = iota
	// KindInstant is a point event; End == Start.
	KindInstant
	// KindCounter is a sampled value at a point in time; End == Start and
	// Value carries the sample.
	KindCounter
)

// Event is one recorded trace event. Times are simulated nanoseconds.
type Event struct {
	Kind  Kind
	Track string
	Name  string
	Start sim.Time
	End   sim.Time
	Value float64
}

// Trace is an in-memory event recorder implementing sim.Tracer. Install
// it with Engine.SetTracer before scheduling work. The zero value is not
// usable; construct with New.
type Trace struct {
	label    string
	events   []Event
	tracks   []string
	trackIdx map[string]int
}

// Compile-time check that Trace satisfies the engine's hook interface.
var _ sim.Tracer = (*Trace)(nil)

// New returns an empty trace labelled for sink output (the label becomes
// the process name in Chrome traces and the trace column in metrics
// tables).
func New(label string) *Trace {
	return &Trace{label: label, trackIdx: map[string]int{}}
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

// Events returns the recorded events in emission order. The slice is the
// recorder's backing store; callers must not mutate it.
//
//simlint:allow unused the readout the core trace tests inspect
func (t *Trace) Events() []Event { return t.events }

// Tracks returns the track names in first-seen order. This ordering is a
// deterministic function of the simulation, which is what lets the Chrome
// sink assign stable thread ids without sorting.
//
//simlint:allow unused the readout the core and tracing trace tests inspect
func (t *Trace) Tracks() []string { return t.tracks }

func (t *Trace) track(name string) {
	if _, ok := t.trackIdx[name]; !ok {
		//simlint:allow hotalloc tracing-enabled runs trade allocations for observability; the zero-alloc contract is pinned with the tracer disabled
		t.trackIdx[name] = len(t.tracks)
		//simlint:allow hotalloc tracing-enabled runs trade allocations for observability; the zero-alloc contract is pinned with the tracer disabled
		t.tracks = append(t.tracks, name)
	}
}

// Span records a completed interval. Part of sim.Tracer.
func (t *Trace) Span(track, name string, start, end sim.Time) {
	t.track(track)
	//simlint:allow hotalloc tracing-enabled runs trade allocations for observability; the zero-alloc contract is pinned with the tracer disabled
	t.events = append(t.events, Event{Kind: KindSpan, Track: track, Name: name, Start: start, End: end})
}

// Instant records a point event. Part of sim.Tracer.
func (t *Trace) Instant(track, name string, at sim.Time) {
	t.track(track)
	//simlint:allow hotalloc tracing-enabled runs trade allocations for observability; the zero-alloc contract is pinned with the tracer disabled
	t.events = append(t.events, Event{Kind: KindInstant, Track: track, Name: name, Start: at, End: at})
}

// Counter records a sampled value. Part of sim.Tracer.
func (t *Trace) Counter(track, name string, at sim.Time, value float64) {
	t.track(track)
	//simlint:allow hotalloc tracing-enabled runs trade allocations for observability; the zero-alloc contract is pinned with the tracer disabled
	t.events = append(t.events, Event{Kind: KindCounter, Track: track, Name: name, Start: at, End: at, Value: value})
}

// BusyTime sums the durations of all spans with the given name on the
// given track. For resource tracks, BusyTime(track, "hold") is exactly
// the busy-time integral that Resource.Utilization divides by elapsed
// time×capacity, which is what lets tests reconcile trace output against
// the resource's own accounting.
//
//simlint:allow unused the oracle the trace-reconciliation tests in core and tracing compare against
func (t *Trace) BusyTime(track, name string) sim.Time {
	var sum sim.Time
	for _, e := range t.events {
		if e.Kind == KindSpan && e.Track == track && e.Name == name {
			sum += e.End - e.Start
		}
	}
	return sum
}

// Filter returns a new trace (same label) containing only the events
// whose track satisfies keep, with track first-seen order preserved.
// Reports use it to aggregate over coarse resources (buses, links, ODP
// units) while the full-detail trace still goes to the Chrome sink.
func (t *Trace) Filter(keep func(track string) bool) *Trace {
	out := New(t.label)
	for _, e := range t.events {
		if !keep(e.Track) {
			continue
		}
		out.track(e.Track)
		out.events = append(out.events, e)
	}
	return out
}

// End returns the largest timestamp recorded, or zero for an empty trace.
func (t *Trace) End() sim.Time {
	var end sim.Time
	for _, e := range t.events {
		if e.End > end {
			end = e.End
		}
	}
	return end
}
