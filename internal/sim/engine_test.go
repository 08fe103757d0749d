package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/approx"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of insertion order: %v", got)
		}
	}
}

func TestEngineZeroDelayDuringEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(10, func() {
		got = append(got, "a")
		e.Schedule(0, func() { got = append(got, "b") })
	})
	e.Schedule(10, func() { got = append(got, "c") })
	e.Run()
	want := []string{"a", "c", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.state != stateCanceled {
		t.Fatal("event not marked cancelled")
	}
	// Double cancel and cancelling nil must be no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelMiddleKeepsOthers(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 1) })
	ev := e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(30, func() { got = append(got, 3) })
	e.Cancel(ev)
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

// TestEngineRunUntilStop pins Run's stop contract: when Stop fires
// mid-run the clock stays at the stopping event's timestamp, the pending
// events are kept, and a second Run resumes them.
func TestEngineRunUntilStop(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.Schedule(15, func() { e.Stop() })
	if end := e.Run(); end != 15 {
		t.Fatalf("Run after Stop returned %d, want stop time 15", end)
	}
	if e.Now() != 15 {
		t.Fatalf("now = %d after Stop, want 15", e.Now())
	}
	if n := pendingEvents(e); n != 2 {
		t.Fatalf("pending = %d, want the 20 and 30 events preserved", n)
	}
	if end := e.Run(); end != 30 {
		t.Fatalf("resumed Run = %d, want 30", end)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want all three timed events", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	if n := pendingEvents(e); n != 7 {
		t.Fatalf("pending = %d, want 7 preserved", n)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine clock matches each event's timestamp when it runs.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range raw {
			d := Time(d)
			e.Schedule(d, func() {
				if e.Now() != d {
					t.Errorf("clock %d != event time %d", e.Now(), d)
				}
				times = append(times, d)
			})
		}
		e.Run()
		if len(times) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving schedules from inside running events preserves
// global time order.
func TestEngineNestedScheduleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var last Time = -1
	violations := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		if e.Now() < last {
			violations++
		}
		last = e.Now()
		if depth <= 0 {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			d := Time(rng.Intn(1000))
			e.Schedule(d, func() { spawn(depth - 1) })
		}
	}
	for i := 0; i < 50; i++ {
		e.Schedule(Time(rng.Intn(100)), func() { spawn(4) })
	}
	e.Run()
	if violations != 0 {
		t.Fatalf("%d time-order violations", violations)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if s := (2 * Second).Seconds(); !approx.Equal(s, 2) {
		t.Errorf("Seconds = %v", s)
	}
	if ms := (5 * Millisecond).Millis(); !approx.Equal(ms, 5) {
		t.Errorf("Millis = %v", ms)
	}
	if us := (7 * Microsecond).Micros(); !approx.Equal(us, 7) {
		t.Errorf("Micros = %v", us)
	}
}

func TestPreemptibleBasic(t *testing.T) {
	e := NewEngine()
	p := NewPreemptible(e, 5)
	var order []string
	p.Use(300, Func(func() { order = append(order, "prog") }))
	// A priority read arrives mid-program.
	e.Schedule(100, func() {
		p.UsePriority(65, Func(func() { order = append(order, "read") }))
	})
	e.Run()
	if len(order) != 2 || order[0] != "read" || order[1] != "prog" {
		t.Fatalf("order = %v", order)
	}
	// Timeline: prog runs 100, read 100..165, prog resumes with 200
	// remaining + 5 overhead → ends at 370.
	if e.Now() != 370 {
		t.Fatalf("end = %d, want 370", e.Now())
	}
	if p.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", p.Preemptions())
	}
}

func TestPreemptibleHighDoesNotPreemptHigh(t *testing.T) {
	e := NewEngine()
	p := NewPreemptible(e, 0)
	var ends []Time
	p.UsePriority(100, Func(func() { ends = append(ends, e.Now()) }))
	e.Schedule(10, func() {
		p.UsePriority(100, Func(func() { ends = append(ends, e.Now()) }))
	})
	e.Run()
	if ends[0] != 100 || ends[1] != 200 {
		t.Fatalf("ends = %v", ends)
	}
	if p.Preemptions() != 0 {
		t.Fatal("high preempted high")
	}
}

func TestPreemptiblePriorityQueueJumpsLow(t *testing.T) {
	e := NewEngine()
	p := NewPreemptible(e, 0)
	var order []string
	p.Use(100, Func(func() { order = append(order, "a") }))
	p.Use(100, Func(func() { order = append(order, "b") }))
	e.Schedule(10, func() {
		p.UsePriority(10, Func(func() { order = append(order, "hi") }))
	})
	e.Run()
	// hi suspends a, finishes, a resumes, then b.
	want := []string{"hi", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPreemptibleDoubleSuspend(t *testing.T) {
	e := NewEngine()
	p := NewPreemptible(e, 2)
	var progEnd Time
	p.Use(300, Func(func() { progEnd = e.Now() }))
	e.Schedule(50, func() { p.UsePriority(10, nil) })
	e.Schedule(100, func() { p.UsePriority(10, nil) })
	e.Run()
	// Two suspends: total = 300 + 2×10 + 2×2 overhead = 324.
	if progEnd != 324 {
		t.Fatalf("program end = %d, want 324", progEnd)
	}
	if p.Preemptions() != 2 {
		t.Fatalf("preemptions = %d", p.Preemptions())
	}
}

// TestPreemptibleCompletionSubmitKeepsSuspendedOp is the regression test
// for a completion callback that submits low-priority work while an
// operation is suspended. A low op A runs, a high op H suspends it, and
// H's callback submits a low op L; a second high op later suspends
// whatever runs. The pre-fix submit started L at once (the server looked
// idle inside the callback), so the second suspend overwrote A's slot and
// A never completed.
func TestPreemptibleCompletionSubmitKeepsSuspendedOp(t *testing.T) {
	e := NewEngine()
	p := NewPreemptible(e, 0)
	var order []string
	done := func(name string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%d", name, e.Now())) }
	}
	p.Use(100, Func(done("A")))
	e.Schedule(10, func() {
		p.UsePriority(10, Func(func() {
			done("H")()
			p.Use(50, Func(done("L")))
		}))
	})
	e.Schedule(40, func() { p.UsePriority(10, Func(done("H2"))) })
	e.Run()
	// A resumes at 20 ahead of L with 90 to go, H2 suspends it at 40 with
	// 70 to go, A ends at 50+70, then L runs 120..170.
	want := []string{"H@20", "H2@50", "A@120", "L@170"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if p.cur != nil || p.Preemptions() != 2 {
		t.Fatalf("busy=%v preemptions=%d after drain", p.cur != nil, p.Preemptions())
	}
}

func TestPreemptibleNegativeOverheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPreemptible(NewEngine(), -1)
}

// TestTimeScaleRounding documents Scale's rounding contract: half away
// from zero, symmetric for negative durations, with sub-nanosecond results
// rounding to the nearest whole tick rather than flushing to zero.
func TestTimeScaleRounding(t *testing.T) {
	cases := []struct {
		t    Time
		k    float64
		want Time
	}{
		{100, 1.0, 100},
		{100, 0.5, 50},
		{3, 0.5, 2}, // 1.5 rounds up (away from zero), not down to 1
		{1, 0.5, 1}, // 0.5 rounds away from zero, not to 0
		{1, 0.4, 0}, // 0.4 is nearer zero
		{1, 0.6, 1}, // sub-nanosecond result keeps the nearer tick
		{-100, 0.5, -50},
		{-3, 0.5, -2}, // -1.5 rounds to -2: symmetric with +1.5
		{-1, 0.5, -1}, // -0.5 rounds away from zero
		{-1, 0.4, 0},
		{7, 1.0 / 3.0, 2},            // 2.33 truncates and rounds identically
		{8, 1.0 / 3.0, 3},            // 2.67 rounds up where truncation said 2
		{1e9, 1.0000000005, 1e9 + 1}, // half-tick drift at second scale is kept
	}
	for _, c := range cases {
		if got := c.t.Scale(c.k); got != c.want {
			t.Errorf("Time(%d).Scale(%v) = %d, want %d", c.t, c.k, got, c.want)
		}
	}
}

// TestTimeScaleUnbiased shows why Scale rounds: over a spread of odd
// durations the truncating version drifted systematically short, while
// round-half-away-from-zero centres the accumulated error near zero.
func TestTimeScaleUnbiased(t *testing.T) {
	const k = 1.0 / 7.0
	var roundedSum, truncatedSum, exactSum float64
	for d := Time(1); d <= 1000; d++ {
		roundedSum += float64(d.Scale(k))
		truncatedSum += float64(Time(float64(d) * k))
		exactSum += float64(d) * k
	}
	if drift := exactSum - roundedSum; drift < -1 || drift > 1 {
		t.Fatalf("rounded scaling drifts by %v ns over 1000 samples", drift)
	}
	if drift := exactSum - truncatedSum; drift < 100 {
		t.Fatalf("truncation drift %v unexpectedly small; audit premise broken", drift)
	}
}
