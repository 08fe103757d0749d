package tracing

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// contendedCapacity is the capacity contendedRun builds each resource
// with, by name.
var contendedCapacity = map[string]int{"bus": 1, "dies": 4}

// contendedNames names contendedRun's resources in the order it returns
// them.
var contendedNames = []string{"bus", "dies"}

// contendedRun drives a small two-resource contention workload and
// returns the engine, resources, and the recorded trace.
func contendedRun(t *testing.T) (*sim.Engine, []*sim.Resource, *Trace) {
	t.Helper()
	e := sim.NewEngine()
	tr := New("test")
	e.SetTracer(tr)
	bus := sim.NewResource(e, "bus", contendedCapacity["bus"])
	dies := sim.NewResource(e, "dies", contendedCapacity["dies"])
	for i := 0; i < 16; i++ {
		//simlint:allow simtime arbitrary synthetic nanosecond durations for contention
		d := sim.Time(50 + 7*i)
		bus.Use(d, sim.Func(func() {
			dies.Use(3*d, nil)
		}))
	}
	ev := e.Schedule(5, func() {})
	e.Cancel(ev)
	e.Run()
	return e, []*sim.Resource{bus, dies}, tr
}

func TestTraceRecordsTracksInFirstSeenOrder(t *testing.T) {
	_, _, tr := contendedRun(t)
	tracks := tr.Tracks()
	if len(tracks) < 3 {
		t.Fatalf("tracks = %v", tracks)
	}
	if tracks[0] != "bus" {
		t.Fatalf("first track = %q, want bus (first activity)", tracks[0])
	}
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestHoldSpansReconcileWithUtilization is the acceptance-criteria
// invariant: the sum of hold spans per resource, divided by elapsed
// time x capacity, must match Resource.Utilization within 1e-9.
func TestHoldSpansReconcileWithUtilization(t *testing.T) {
	e, resources, tr := contendedRun(t)
	for i, r := range resources {
		name := contendedNames[i]
		busy := tr.BusyTime(name, "hold")
		got := float64(busy) / (float64(e.Now()) * float64(contendedCapacity[name]))
		want := r.Utilization()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: trace-derived utilization %v, resource reports %v", name, got, want)
		}
		if busy == 0 {
			t.Errorf("%s: no hold spans recorded", name)
		}
	}
}

func TestWriteChromeProducesValidJSON(t *testing.T) {
	_, _, tr := contendedRun(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		switch ph {
		case "M":
			continue
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events emitted (got %v)", ph, phases)
		}
	}
}

func TestWriteChromeIsDeterministic(t *testing.T) {
	render := func() []byte {
		_, _, tr := contendedRun(t)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs rendered different Chrome traces")
	}
}

func TestWriteChromeMultiTracePIDs(t *testing.T) {
	_, _, tr1 := contendedRun(t)
	_, _, tr2 := contendedRun(t)
	tr2.label = "second"
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr1, tr2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev["pid"].(float64)] = true
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("expected pids 1 and 2, got %v", pids)
	}
	if !strings.Contains(buf.String(), `"second"`) {
		t.Fatal("second trace label missing from process metadata")
	}
}

func TestAppendMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
		{-2500, "-2.500"},
	}
	for _, c := range cases {
		if got := string(appendMicros(nil, c.ns)); got != c.want {
			t.Errorf("appendMicros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestAppendJSONString(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `"plain"`},
		{`a"b`, `"a\"b"`},
		{`a\b`, `"a\\b"`},
		{"a\nb", `"a\u000ab"`},
	}
	for _, c := range cases {
		got := string(appendJSONString(nil, c.in))
		if got != c.want {
			t.Errorf("appendJSONString(%q) = %s, want %s", c.in, got, c.want)
		}
		var s string
		if err := json.Unmarshal([]byte(got), &s); err != nil || s != c.in {
			t.Errorf("round-trip of %q failed: %v %q", c.in, err, s)
		}
	}
}

func TestSummaryTable(t *testing.T) {
	_, _, tr := contendedRun(t)
	tbl := SummaryTable(tr)
	if tbl.NumRows() == 0 {
		t.Fatal("empty summary table")
	}
	foundHold := false
	for i := 0; i < tbl.NumRows(); i++ {
		row := tbl.Row(i)
		if row[1] == "bus" && row[2] == "hold" {
			foundHold = true
			if row[3] != "16" {
				t.Errorf("bus hold count = %s, want 16", row[3])
			}
		}
	}
	if !foundHold {
		t.Fatal("no bus/hold row in summary")
	}
}

func TestUtilizationTimeline(t *testing.T) {
	e, resources, tr := contendedRun(t)
	const buckets = 8
	fig := UtilizationTimeline(tr, "hold", buckets)
	if len(fig.Series) == 0 {
		t.Fatal("no series in timeline")
	}
	// The bucketed busy fractions must integrate back to the end-of-run
	// busy time for each capacity-1-equivalent track.
	width := float64(e.Now()) / buckets
	for _, s := range fig.Series {
		var total float64
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("%s: negative busy fraction %v", s.Name, p.Y)
			}
			total += p.Y * width
		}
		var r *sim.Resource
		for i, cand := range resources {
			if contendedNames[i] == s.Name {
				r = cand
			}
		}
		if r == nil {
			t.Fatalf("series %s has no matching resource", s.Name)
		}
		want := r.Utilization() * float64(e.Now()) * float64(contendedCapacity[s.Name])
		//simlint:allow unitconv 1e-6 is a relative tolerance, not a unit conversion
		if math.Abs(total-want) > 1e-6*want {
			t.Errorf("%s: timeline integrates to %v, busy time is %v", s.Name, total, want)
		}
	}
}

func TestUtilizationTimelineEmptyTrace(t *testing.T) {
	fig := UtilizationTimeline(New("empty"), "hold", 4)
	if len(fig.Series) != 0 {
		t.Fatal("empty trace produced series")
	}
}
