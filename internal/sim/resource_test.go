package sim

import (
	"runtime"
	"testing"
)

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Use(100, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "planes", 4)
	var ends []Time
	for i := 0; i < 8; i++ {
		r.Use(50, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	// Two waves of four.
	for i, want := range []Time{50, 50, 50, 50, 100, 100, 100, 100} {
		if ends[i] != want {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Use(10, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	r.Use(100, nil)
	// Idle 100ns afterwards.
	e.Schedule(200, func() {})
	e.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// TestResourceDeepContentionIterativeDrain queues 100k waiters behind one
// held unit whose granted callbacks release synchronously, so a single
// release drains the entire queue in one cascade. The pre-fix recursive
// hand-off built a release→grant→release call chain one frame per waiter
// deep (a ~100k-frame stack); the iterative drain must keep the call
// stack flat while preserving exact FIFO grant order and timestamps.
func TestResourceDeepContentionIterativeDrain(t *testing.T) {
	const waiters = 100_000
	e := NewEngine()
	r := NewResource(e, "r", 1)

	var hold func()
	r.Acquire(func(release func()) { hold = release })

	var order []int
	var times []Time
	maxDepth := 0
	pcs := make([]uintptr, 512)
	for i := 0; i < waiters; i++ {
		i := i
		r.Acquire(func(release func()) {
			order = append(order, i)
			times = append(times, e.Now())
			if d := runtime.Callers(0, pcs); d > maxDepth {
				maxDepth = d
			}
			release()
		})
	}
	if r.QueueLen() != waiters {
		t.Fatalf("queue = %d, want %d", r.QueueLen(), waiters)
	}

	e.Schedule(100, hold)
	e.Run()

	if len(order) != waiters {
		t.Fatalf("granted %d waiters, want %d", len(order), waiters)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order broken at %d: got %d (FIFO violated)", i, v)
		}
		if times[i] != 100 {
			t.Fatalf("waiter %d granted at t=%d, want 100", i, times[i])
		}
	}
	if r.Grants() != waiters+1 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("grants=%d inUse=%d queue=%d after drain", r.Grants(), r.InUse(), r.QueueLen())
	}
	// The recursive version exceeds any fixed bound (one release and one
	// grant frame per queued waiter); the iterative drain stays shallow no
	// matter how deep the queue was.
	if maxDepth >= len(pcs) {
		t.Fatalf("call stack reached %d+ frames during drain; hand-off is recursing", maxDepth)
	}
}

// TestResourceAcquireDuringDrainKeepsFIFO pins the companion Acquire
// guard: a granted callback that releases synchronously and immediately
// re-acquires must queue behind the already-waiting requests (capacity is
// momentarily free mid-drain, but the queue is not empty).
// TestResourceQueueReusesDrainedSlots is the regression test for the wait
// queue's storage: a queue that never empties must reuse its drained
// slots instead of growing by one slot per request, and stay FIFO. Each
// completion submits two requests in one phase of 2048 completions and
// none in the next, so the depth swings between 1 and about 2000;
// a completion that would leave the queue empty submits one more.
func TestResourceQueueReusesDrainedSlots(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "plane", 1)
	const total = 100000
	submitted, next := 0, 0
	var submit func()
	submit = func() {
		id := submitted
		submitted++
		r.Use(1, func() {
			if id != next {
				t.Fatalf("request %d completed, want %d (FIFO broken)", id, next)
			}
			next++
			if (id/2048)%2 == 0 {
				for k := 0; k < 2 && submitted < total; k++ {
					submit()
				}
			}
			if r.QueueLen() == 0 && submitted < total {
				submit()
			}
			if c, peak := cap(r.q.items), r.PeakQueue(); c > 2*peak {
				t.Fatalf("after %d requests the queue array holds %d slots, peak depth %d", id+1, c, peak)
			}
		})
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	e.Run()
	if next != total {
		t.Fatalf("%d of %d requests completed", next, total)
	}
}

func TestResourceAcquireDuringDrainKeepsFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []string

	var hold func()
	r.Acquire(func(release func()) { hold = release })
	r.Acquire(func(release func()) {
		order = append(order, "a")
		release()
		// Queue is still holding b; this must not overtake it.
		r.Acquire(func(release func()) {
			order = append(order, "a2")
			release()
		})
	})
	r.Acquire(func(release func()) {
		order = append(order, "b")
		release()
	})
	e.Schedule(10, hold)
	e.Run()

	want := []string{"a", "b", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceDoubleReleasePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Acquire(func(release func()) {
		release()
		release()
	})
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0)
}

func TestResourceCounters(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 3; i++ {
		r.Use(10, nil)
	}
	if r.QueueLen() != 2 {
		t.Fatalf("queue = %d, want 2", r.QueueLen())
	}
	if r.PeakQueue() != 2 {
		t.Fatalf("peak = %d", r.PeakQueue())
	}
	e.Run()
	if r.Grants() != 3 {
		t.Fatalf("grants = %d", r.Grants())
	}
	if r.InUse() != 0 {
		t.Fatalf("inUse = %d after drain", r.InUse())
	}
	if r.Name() != "r" || r.Capacity() != 1 {
		t.Fatal("accessors wrong")
	}
}

func TestCounter(t *testing.T) {
	fired := false
	c := NewCounter(2, func() { fired = true })
	c.Done()
	if fired {
		t.Fatal("fired early")
	}
	c.Done()
	if !fired {
		t.Fatal("did not fire")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Done below zero did not panic")
		}
	}()
	c.Done()
}

func TestCounterArmZero(t *testing.T) {
	fired := false
	c := NewCounter(0, func() { fired = true })
	c.Arm()
	if !fired {
		t.Fatal("Arm with zero outstanding did not fire")
	}
}

func TestCounterAdd(t *testing.T) {
	fired := false
	c := NewCounter(1, func() { fired = true })
	c.Add(1)
	c.Done()
	if fired || c.Remaining() != 1 {
		t.Fatalf("fired=%v remaining=%d", fired, c.Remaining())
	}
	c.Done()
	if !fired {
		t.Fatal("did not fire after Add accounted")
	}
}

func TestChain(t *testing.T) {
	e := NewEngine()
	var got []string
	Chain(func() { got = append(got, "done") },
		func(next func()) { e.Schedule(10, func() { got = append(got, "a"); next() }) },
		func(next func()) { e.Schedule(10, func() { got = append(got, "b"); next() }) },
		func(next func()) { got = append(got, "c"); next() },
	)
	e.Run()
	want := []string{"a", "b", "c", "done"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("chain stages did not run sequentially: t=%d", e.Now())
	}
}

func TestChainEmpty(t *testing.T) {
	done := false
	Chain(func() { done = true })
	if !done {
		t.Fatal("empty chain did not complete")
	}
}

func TestForkJoin(t *testing.T) {
	e := NewEngine()
	var doneAt Time = -1
	ForkJoin(func() { doneAt = e.Now() },
		func(next func()) { e.Schedule(10, next) },
		func(next func()) { e.Schedule(30, next) },
		func(next func()) { e.Schedule(20, next) },
	)
	e.Run()
	if doneAt != 30 {
		t.Fatalf("join at %d, want 30 (max of branches)", doneAt)
	}
}

func TestForkJoinEmpty(t *testing.T) {
	done := false
	ForkJoin(func() { done = true })
	if !done {
		t.Fatal("empty fork-join did not complete")
	}
}

// recTracer is a minimal Tracer capturing events for assertions.
type recTracer struct {
	spans    []string
	spanSum  map[string]Time
	instants map[string]int
	counters int
}

func newRecTracer() *recTracer {
	return &recTracer{spanSum: map[string]Time{}, instants: map[string]int{}}
}

func (r *recTracer) Span(track, name string, start, end Time) {
	r.spans = append(r.spans, track+"/"+name)
	r.spanSum[track+"/"+name] += end - start
}
func (r *recTracer) Instant(track, name string, at Time) { r.instants[track+"/"+name]++ }
func (r *recTracer) Counter(track, name string, at Time, value float64) {
	r.counters++
}

// TestTracerObservesEngineAndResource checks the instrumentation points:
// fire/cancel instants from the engine, and hold/wait spans from resources
// whose hold sum reproduces the utilization integral exactly.
func TestTracerObservesEngineAndResource(t *testing.T) {
	e := NewEngine()
	tr := newRecTracer()
	e.SetTracer(tr)
	r := NewResource(e, "bus", 1)
	for i := 0; i < 3; i++ {
		r.Use(100, nil)
	}
	ev := e.Schedule(500, func() {})
	e.Cancel(ev)
	e.Schedule(400, func() {}) // extend past the last release
	e.Run()

	if tr.instants["engine/cancel"] != 1 {
		t.Fatalf("cancel instants = %d", tr.instants["engine/cancel"])
	}
	if tr.instants["engine/fire"] == 0 {
		t.Fatal("no fire instants recorded")
	}
	if got := tr.spanSum["bus/hold"]; got != 300 {
		t.Fatalf("hold span sum = %d, want 300", got)
	}
	// Reconciliation: span sum / (now * capacity) == Utilization.
	wantUtil := float64(tr.spanSum["bus/hold"]) / (float64(e.Now()) * float64(r.Capacity()))
	//simlint:allow floateq reconciliation is specified bit-exact: same division, same operands
	if got := r.Utilization(); got != wantUtil {
		t.Fatalf("utilization %v != trace-derived %v", got, wantUtil)
	}
	// Two of the three requests queued: two wait spans of 100 and 200.
	if got := tr.spanSum["bus/wait"]; got != 300 {
		t.Fatalf("wait span sum = %d, want 300", got)
	}
	if tr.counters == 0 {
		t.Fatal("no counter samples recorded")
	}
}

// TestDisabledTracerAddsNoAllocations pins the hot-path cost of the
// disabled tracer and of the pooled kernel: a steady-state Use+Run cycle
// allocates nothing at all — the request struct comes from the
// resource's freelist, the completion event from the engine's, and the
// completion callback is a package function taking the pooled request as
// its argument, so there are no closures to heap-allocate. (The
// pre-pooling kernel allocated 6 objects per cycle here.)
func TestDisabledTracerAddsNoAllocations(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 64; i++ { // pre-grow heap and queue slices
		r.Use(1, nil)
	}
	e.Run()
	per := testing.AllocsPerRun(1000, func() {
		r.Use(1, nil)
		e.Run()
	})
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("Use+Run allocates %v with tracing disabled, want 0 (pooled request/event kernel)", per)
	}
}
