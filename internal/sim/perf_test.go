package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// --- Bugfix regressions -------------------------------------------------

// TestEngineCancelAfterFireKeepsFired pins the Cancel/fired state machine:
// cancelling an event that already executed must be a no-op, not
// retroactively mark it cancelled. The pre-fix code set canceled = true
// unconditionally, so callers racing a completion (plane suspend logic,
// timeout cleanup) saw Canceled() == true for work that actually ran.
// The handle stays valid here because nothing is scheduled after the
// fire, so the pool has not reused the struct.
func TestEngineCancelAfterFireKeepsFired(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(10, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if !ev.Fired() || ev.Canceled() {
		t.Fatalf("after fire: Fired=%v Canceled=%v, want true/false", ev.Fired(), ev.Canceled())
	}
	e.Cancel(ev)
	if ev.Canceled() {
		t.Fatal("Cancel marked an already-fired event as cancelled")
	}
	if !ev.Fired() {
		t.Fatal("Cancel cleared the fired state")
	}
}

// TestPreemptibleSuspendDuringResumeOverhead pins the resume-overhead
// accounting fix: suspending a resumed operation before its overhead is
// fully consumed must not carry the unconsumed overhead into the captured
// remaining work, because the next resume charges a fresh ResumeOverhead.
//
// Timeline (overhead 10): prog(100) starts at 0; hi(20) at 50 suspends it
// with 50 of work left; hi runs 50→70; prog resumes at 70 as 10 overhead
// + 50 work; hi(20) at 75 suspends it again, 5 ticks into the overhead.
// Remaining work is still 50 (5 of overhead consumed, 0 work done), so
// after hi runs 75→95 the final resume is 10+50 → prog ends at 155. The
// pre-fix code captured 55 (work plus the 5 unconsumed overhead ticks)
// and ended at 160, compounding one extra overhead per suspend.
func TestPreemptibleSuspendDuringResumeOverhead(t *testing.T) {
	e := NewEngine()
	p := NewPreemptible(e, "plane", 10)
	var progEnd Time = -1
	p.Use(100, func() { progEnd = e.Now() })
	e.Schedule(50, func() { p.UsePriority(20, nil) })
	e.Schedule(75, func() { p.UsePriority(20, nil) })
	e.Run()
	if progEnd != 155 {
		t.Fatalf("program end = %d, want 155 (160 means unconsumed resume overhead compounded)", progEnd)
	}
	if p.Preemptions() != 2 {
		t.Fatalf("preemptions = %d, want 2", p.Preemptions())
	}
}

// --- Allocation pins ----------------------------------------------------

// TestScheduleSteadyStateZeroAllocs pins the pooled Schedule path: once
// the freelist, lane and queue storage are warm, a Schedule+Run cycle
// performs zero heap allocations — the Event comes from the per-engine
// freelist and a capture-free callback is a static func value. The second
// cycle spreads events over several delay lanes and cancels lane events
// at the head and behind it, whose tombstones are recycled as they reach
// the head.
func TestScheduleSteadyStateZeroAllocs(t *testing.T) {
	fn := func() {}
	for _, c := range []struct {
		name  string
		cycle func(e *Engine)
	}{
		{"one-class", func(e *Engine) {
			e.Schedule(1, fn)
			e.Run()
		}},
		{"classes+cancel", func(e *Engine) {
			e.Cancel(e.Schedule(9, fn)) // the head of its lane
			for d := Time(0); d < 6; d++ {
				e.Schedule(d, fn)
				e.Schedule(d, fn)
			}
			e.Cancel(e.Schedule(4, fn)) // behind the head
			e.Schedule(9, fn)
			e.Run()
		}},
	} {
		name, cycle := c.name, c.cycle
		e := NewEngine()
		for i := 0; i < 64; i++ {
			e.Schedule(Time(i%7), fn)
		}
		e.Run()
		cycle(e)
		per := testing.AllocsPerRun(1000, func() { cycle(e) })
		//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
		if per != 0 {
			t.Fatalf("%s: Schedule+Run allocates %v in steady state, want 0 (event pool broken)", name, per)
		}
		if e.Pending() != 0 {
			t.Fatalf("%s: %d events pending after Run", name, e.Pending())
		}
	}
}

// TestScheduleBatchSteadyStateZeroAllocs pins the batch path the same
// way: the caller owns the Timed slice, so a warm batch insert allocates
// nothing beyond it.
func TestScheduleBatchSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	items := make([]Timed, 16)
	for i := range items {
		items[i] = Timed{Delay: Time(i % 5), Fn: fn}
	}
	e.ScheduleBatch(items)
	e.Run()
	per := testing.AllocsPerRun(1000, func() {
		e.ScheduleBatch(items)
		e.Run()
	})
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("ScheduleBatch+Run allocates %v in steady state, want 0", per)
	}
}

// --- ScheduleBatch contract ---------------------------------------------

// TestScheduleBatchMatchesIndividual proves the batch API is purely a
// performance hint: for the same (delay, fn) sequence — ties included —
// batch insertion fires callbacks in exactly the order a loop of
// Schedule calls would, on both the bulk-heapify path (large batch into
// an empty queue) and the incremental path (small batch into a populated
// queue).
func TestScheduleBatchMatchesIndividual(t *testing.T) {
	delays := []Time{30, 10, 10, 0, 20, 10, 5, 5, 40, 0, 25, 30, 15, 7, 7, 7}
	run := func(batch bool, preload int) []int {
		e := NewEngine()
		var got []int
		// Background events exercise merging into a non-empty queue.
		for i := 0; i < preload; i++ {
			i := i
			e.Schedule(Time(i*3+1), func() { got = append(got, 1000+i) })
		}
		items := make([]Timed, len(delays))
		for i, d := range delays {
			i := i
			items[i] = Timed{Delay: d, Fn: func() { got = append(got, i) }}
		}
		if batch {
			e.ScheduleBatch(items)
		} else {
			for _, it := range items {
				e.Schedule(it.Delay, it.Fn)
			}
		}
		e.Run()
		return got
	}
	for _, preload := range []int{0, 100} {
		a := run(false, preload)
		b := run(true, preload)
		if len(a) != len(b) {
			t.Fatalf("preload=%d: fired %d vs %d events", preload, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("preload=%d: firing order diverges at %d: individual %v, batch %v", preload, i, a, b)
			}
		}
	}
}

func TestScheduleBatchNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative batch delay did not panic")
		}
	}()
	NewEngine().ScheduleBatch([]Timed{{Delay: 5}, {Delay: -1}})
}

// --- Pool-reuse determinism ---------------------------------------------

// TestEventPoolReuseDeterminism runs one pseudo-random schedule/cancel
// workload on a cold engine and on an engine whose freelists were churned
// by unrelated prior work, and requires identical firing sequences and
// identical relative firing times. Event identity must live entirely in
// the (time, seq) ordering key — never in struct addresses — or pooled
// reuse would silently reorder simulations.
func TestEventPoolReuseDeterminism(t *testing.T) {
	workload := func(e *Engine) (ids []int, times []Time) {
		start := e.Now()
		rng := rand.New(rand.NewSource(7))
		var handles []*Event
		for i := 0; i < 400; i++ {
			i := i
			ev := e.Schedule(Time(rng.Intn(50)), func() {
				ids = append(ids, i)
				times = append(times, e.Now()-start)
			})
			if rng.Intn(4) == 0 {
				handles = append(handles, ev)
			}
			// Cancel a random earlier retained handle now and then, while
			// it is still pending (nothing has fired yet).
			if len(handles) > 0 && rng.Intn(8) == 0 {
				k := rng.Intn(len(handles))
				e.Cancel(handles[k])
				handles = append(handles[:k], handles[k+1:]...)
			}
		}
		e.Run()
		return ids, times
	}

	cold := NewEngine()
	idsA, timesA := workload(cold)

	warm := NewEngine()
	for i := 0; i < 500; i++ {
		warm.Schedule(Time(i%13), func() {})
	}
	warm.Run() // populate the event freelist with recycled structs
	idsB, timesB := workload(warm)

	if len(idsA) != len(idsB) {
		t.Fatalf("cold fired %d events, warm %d", len(idsA), len(idsB))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] || timesA[i] != timesB[i] {
			t.Fatalf("divergence at %d: cold (%d@%d) vs warm (%d@%d)",
				i, idsA[i], timesA[i], idsB[i], timesB[i])
		}
	}
}

// --- Kernel benchmarks --------------------------------------------------

// BenchmarkEngineScheduleFire measures the engine's schedule-and-fire
// loop at a constant queue depth: every event, when it fires, schedules
// one replacement, cycling through `classes` distinct delays. One class
// is a single lane, 8 fit the lanes, and 32 overflow half of them to the
// heap. It reports ns/event and allocs/event of the warm loop.
func BenchmarkEngineScheduleFire(b *testing.B) {
	for _, classes := range []int{1, 8, 32} {
		for _, depth := range []int{64, 512} {
			b.Run(fmt.Sprintf("classes=%d/depth=%d", classes, depth), func(b *testing.B) {
				delays := make([]Time, classes)
				for i := range delays {
					delays[i] = Time(1000 + 137*i)
				}
				e := NewEngine()
				k := 0
				var fn func()
				fn = func() {
					k++
					e.Schedule(delays[k%classes], fn)
				}
				for i := 0; i < depth; i++ {
					e.Schedule(delays[i%classes], fn)
				}
				for i := 0; i < 16*depth; i++ {
					e.Step()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/event")
			})
		}
	}
}

// BenchmarkScheduleBatch measures one 64-event ScheduleBatch, over seven
// delays, and the Run that drains it. It reports ns/event.
func BenchmarkScheduleBatch(b *testing.B) {
	const batch = 64
	e := NewEngine()
	fn := func() {}
	items := make([]Timed, batch)
	for i := range items {
		items[i] = Timed{Delay: Time(i % 7), Fn: fn}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleBatch(items)
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
}

// BenchmarkResourceUse measures one Resource.Use on an idle resource and
// the Run that fires its completion.
func BenchmarkResourceUse(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Use(1, nil)
		e.Run()
	}
}
