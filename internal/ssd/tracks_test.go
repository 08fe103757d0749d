package ssd

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// trackSet records every track a tracer is handed, once each.
type trackSet struct {
	seen  map[string]bool
	names []string
}

func (s *trackSet) add(track string) {
	if !s.seen[track] {
		s.seen[track] = true
		s.names = append(s.names, track)
	}
}

func (s *trackSet) Span(track, _ string, _, _ sim.Time)            { s.add(track) }
func (s *trackSet) Instant(track, _ string, _ sim.Time)            { s.add(track) }
func (s *trackSet) Counter(track, _ string, _ sim.Time, _ float64) { s.add(track) }

// TestTracedDeviceTrackNames pins the tracks a traced 2×2×2 device
// writes when every page is written and read back: the engine, the write
// cache, each channel's bus and each plane, under the names a trace has
// always carried. The device formats its resource names only when the
// engine traces, from channel, die and plane indices, so this is what
// keeps those names, and the traces read by name, from drifting.
func TestTracedDeviceTrackNames(t *testing.T) {
	e := sim.NewEngine()
	tracks := &trackSet{seen: map[string]bool{}}
	e.SetTracer(tracks)
	d := NewDevice(e, smallConfig())
	n := d.FTL().LogicalPages()
	for lpa := int64(0); lpa < n; lpa++ {
		d.Write(lpa, nil)
	}
	runDrained(t, e, d)
	for lpa := int64(0); lpa < n; lpa++ {
		d.Read(lpa, nil)
	}
	runDrained(t, e, d)

	want := []string{
		"ch0/bus",
		"ch0/die0/plane0", "ch0/die0/plane1", "ch0/die1/plane0", "ch0/die1/plane1",
		"ch1/bus",
		"ch1/die0/plane0", "ch1/die0/plane1", "ch1/die1/plane0", "ch1/die1/plane1",
		"engine",
		"ssd/cache",
	}
	got := slices.Clone(tracks.names)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("traced device wrote tracks\n%q\nwant\n%q", got, want)
	}
}
