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
		r.Use(100, Func(func() { ends = append(ends, e.Now()) }))
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
		r.Use(50, Func(func() { ends = append(ends, e.Now()) }))
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
		r.Use(10, Func(func() { order = append(order, i) }))
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

// TestResourceDeepContentionIterativeDrain queues 100k requests behind
// one held unit. Each release hands the freed unit to the head of the
// queue and only schedules its completion, so the queue drains one grant
// per completion event: the call stack stays flat however deep the queue
// was, and the requests complete in exact FIFO order, back to back.
func TestResourceDeepContentionIterativeDrain(t *testing.T) {
	const waiters = 100_000
	e := NewEngine()
	r := NewResource(e, "r", 1)

	r.Use(100, nil)
	var order []int
	var times []Time
	maxDepth := 0
	pcs := make([]uintptr, 512)
	for i := 0; i < waiters; i++ {
		i := i
		r.Use(1, Func(func() {
			order = append(order, i)
			times = append(times, e.Now())
			if d := runtime.Callers(0, pcs); d > maxDepth {
				maxDepth = d
			}
		}))
	}
	if r.q.n != waiters {
		t.Fatalf("queue = %d, want %d", r.q.n, waiters)
	}
	e.Run()

	if len(order) != waiters {
		t.Fatalf("completed %d waiters, want %d", len(order), waiters)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order broken at %d: got %d (FIFO violated)", i, v)
		}
		if want := Time(100 + i + 1); times[i] != want {
			t.Fatalf("waiter %d completed at t=%d, want %d", i, times[i], want)
		}
	}
	if r.inUse != 0 || r.q.n != 0 {
		t.Fatalf("inUse=%d queue=%d after drain", r.inUse, r.q.n)
	}
	if maxDepth >= len(pcs) {
		t.Fatalf("call stack reached %d+ frames during drain; hand-off is recursing", maxDepth)
	}
}

// served counts the waiters of a deep-queue cycle as they are served and
// how many came out of turn.
type served struct{ n, outOfTurn int }

// waiter is one queued caller of a deep-queue cycle: its Fire checks that
// it is served at its rank. Waiters are built once, outside the measured
// cycles, so firing one allocates nothing.
type waiter struct {
	rank int
	log  *served
}

func (w *waiter) Fire() {
	if w.rank != w.log.n {
		w.log.outOfTurn++
	}
	w.log.n++
}

// TestDeepWaitQueuesAllocateNothing holds 10,000 waiters in each of the
// kernel's wait queues, once warm: a resource's queue behind one held
// unit, a delay lane, and a Preemptible's two priority queues behind a
// high-priority occupant. Waiters queue in place in their pooled records,
// so a cycle allocates nothing however deep its queue, and each queue
// serves its waiters in arrival order: the Preemptible's high-priority
// half first, then its low-priority half.
func TestDeepWaitQueuesAllocateNothing(t *testing.T) {
	const depth = 10_000
	e := NewEngine()
	r := NewResource(e, "r", 1)
	p := NewPreemptible(e, 0)
	log := &served{}
	ws := make([]waiter, depth)
	for _, c := range []struct {
		name  string
		rank  func(i int) int
		queue func(w *waiter)
		head  func()
	}{
		{"resource", func(i int) int { return i }, func(w *waiter) { r.Use(1, w) }, func() { r.Use(100, nil) }},
		{"delay lane", func(i int) int { return i }, func(w *waiter) { e.After(5, w) }, func() {}},
		{"preemptible", func(i int) int {
			if i%2 == 1 {
				return i / 2
			}
			return depth/2 + i/2
		}, func(w *waiter) {
			if w.rank < depth/2 {
				p.UsePriority(1, w)
			} else {
				p.Use(1, w)
			}
		}, func() { p.UsePriority(100, nil) }},
	} {
		for i := range ws {
			ws[i] = waiter{rank: c.rank(i), log: log}
		}
		cycle := func() {
			*log = served{}
			c.head()
			for i := range ws {
				c.queue(&ws[i])
			}
			e.Run()
		}
		cycle()
		if per := testing.AllocsPerRun(5, cycle); per > 0 {
			t.Errorf("%s: a warm cycle of %d waiters allocates %v, want 0", c.name, depth, per)
		}
		if log.n != depth || log.outOfTurn != 0 {
			t.Errorf("%s: served %d of %d waiters, %d out of arrival order", c.name, log.n, depth, log.outOfTurn)
		}
	}
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
	completed := 0
	for i := 0; i < 3; i++ {
		r.Use(10, Func(func() { completed++ }))
	}
	if r.inUse != 1 || r.q.n != 2 {
		t.Fatalf("inUse = %d, queue = %d; want 1 and 2", r.inUse, r.q.n)
	}
	e.Run()
	if completed != 3 {
		t.Fatalf("completed = %d", completed)
	}
	if r.inUse != 0 || r.q.n != 0 {
		t.Fatalf("inUse = %d, queue = %d after drain", r.inUse, r.q.n)
	}
	if r.name != "r" {
		t.Fatal("name wrong")
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
	wantUtil := float64(tr.spanSum["bus/hold"]) / (float64(e.Now()) * float64(r.capacity))
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
