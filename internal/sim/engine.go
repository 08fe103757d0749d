// Package sim implements a deterministic discrete-event simulation kernel.
//
// All timing models in this repository (NAND dies, channel buses, PCIe
// links, on-die processing units) are built on this engine. Time is a
// simple int64 nanosecond counter; events are closures ordered by
// (time, insertion sequence), which makes every run bit-for-bit
// reproducible regardless of map iteration order or goroutine scheduling —
// the engine is strictly single-threaded.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Common durations, as multiples of the base nanosecond tick.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Scale multiplies the duration by a dimensionless factor (extrapolation
// ratios, overlap fractions), rounding half away from zero back to whole
// nanoseconds. Rounding rather than truncating keeps scaling symmetric
// around zero and centres the extrapolation error at zero instead of
// biasing every scaled duration short by up to a nanosecond.
func (t Time) Scale(k float64) Time { return Time(math.Round(float64(t) * k)) }

// Micros converts a simulated duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts a simulated duration to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with an adaptive unit, for reports and tests.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Tracer observes engine and resource activity. The engine holds at most
// one; every hook is guarded by a nil check so the disabled state costs a
// single branch and zero allocations on the hot paths. Implementations
// must be deterministic functions of their inputs — trace output is held
// to the same byte-for-byte reproducibility bar as every other simulator
// output (internal/tracing provides the standard recorder and sinks).
type Tracer interface {
	// Span records a completed interval [start, end] on a named track
	// (resource hold times, model phase spans).
	Span(track, name string, start, end Time)
	// Instant records a point event (engine event fired/cancelled).
	Instant(track, name string, at Time)
	// Counter records a sampled value at a point in time (queue depths,
	// units in use).
	Counter(track, name string, at Time, value float64)
}

// Event lifecycle states. A pending event is queued; it leaves the queue
// exactly once, by firing or by cancellation, and the two are
// distinguishable forever after (Fired vs Canceled).
const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// Event is a scheduled callback. It is returned by the scheduling methods
// so callers can cancel it before it fires.
//
// Events are pooled: once an event has fired or been cancelled the engine
// recycles the struct for a later Schedule/At call. A retained *Event
// stays accurate (At/Fired/Canceled, and Cancel stays a no-op) until the
// engine reuses it, so handles must not be kept past the point where the
// owner knows the event completed — clear them in the callback or after
// Cancel, as the in-tree callers do. A cancelled event waiting in a delay
// lane is recycled only when it reaches the lane's head, which changes
// nothing for the holder: the handle reads Canceled until reuse either way.
//
//simlint:pooled
type Event struct {
	at  Time
	seq uint64
	fn  func()
	// afn/arg is the allocation-free callback form used by the kernel's
	// pooled internal paths: a package-level function plus a pointer-typed
	// argument costs no closure allocation per event.
	afn func(any)
	arg any
	// index is the event's heap slot, inLane while it waits in a delay
	// lane, or -1 once it has left the queue.
	index int32
	state uint8
}

// At reports the simulated time this event will fire at.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel removed the event before it fired. An
// event that actually executed reports false (see Fired).
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// Fired reports whether the event executed.
func (e *Event) Fired() bool { return e.state == stateFired }

// eventLess is the engine's total order: time, ties broken by insertion
// sequence. Sequences are unique, so the order is strict — heap shape can
// never leak into firing order.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxLanes caps the delay lanes an engine keeps. A run of the simulated
// systems uses 5–9 distinct delays; the cap bounds the per-event scan.
const maxLanes = 16

// inLane is the index of an event queued in a delay lane rather than the
// heap.
const inLane int32 = -2

// lane is a FIFO of pending events that were all scheduled with one
// delay. Neither the clock nor the insertion sequence ever decreases, so
// events entering a lane with a fixed delay arrive in (at, seq) order and
// the lane is sorted without any sifting.
type lane struct {
	delay Time
	q     FIFO[*Event]
}

// Engine is a discrete-event simulator instance. The zero value is not
// usable; construct with NewEngine.
//
// Pending events live in up to maxLanes delay lanes, one FIFO per delay
// class that Schedule and the kernel's pooled paths use, plus an inlined
// 4-ary min-heap for everything else: delays beyond the lane cap,
// ScheduleBatch fan-outs and absolute-time At calls. Step fires the least
// (at, seq) among the lane heads and the heap top, so the firing order is
// the engine's total order whichever structure holds an event. The heap
// is specialized to *Event: compared to container/heap's binary heap over
// an interface, it removes interface dispatch on every comparison and
// swap, halves tree depth, and sifts with direct slice writes.
type Engine struct {
	now     Time
	seq     uint64
	queue   []*Event
	lanes   [maxLanes]lane
	nlanes  int      // lanes assigned a delay so far; lanes[nlanes:] are unused
	busy    uint16   // bit i set while lanes[i] holds events, tombstones included
	dead    int      // cancelled events still waiting in a lane
	free    []*Event // recycled Event structs (see Event doc)
	fired   uint64
	stopped bool
	trace   Tracer
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// SetTracer installs (or, with nil, removes) the engine's tracer. Install
// it before scheduling work: events and resource activity are only
// observed from the moment the tracer is present.
func (e *Engine) SetTracer(t Tracer) { e.trace = t }

// Tracer returns the installed tracer, or nil when tracing is disabled.
// Model code emitting phase spans guards on this exactly like the engine
// does internally.
func (e *Engine) Tracer() Tracer { return e.trace }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far. Useful for
// detecting runaway simulations in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int {
	n := len(e.queue) - e.dead
	for i := 0; i < e.nlanes; i++ {
		n += e.lanes[i].q.Len()
	}
	return n
}

// alloc takes an Event from the freelist (or the heap allocator when the
// freelist is dry) and initializes it as pending at time t.
//
//simlint:hotpath
func (e *Engine) alloc(t Time) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
		ev = &Event{}
	}
	*ev = Event{at: t, seq: e.seq}
	e.seq++
	return ev
}

// recycle returns a completed (fired or cancelled) event to the freelist.
// The callback fields are dropped immediately so the pool never pins model
// closures; at/seq/state stay readable through retained handles until the
// struct is reused.
//
//simlint:hotpath
//simlint:release
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	//simlint:allow hotalloc amortized freelist growth; steady state reuses storage
	e.free = append(e.free, ev)
}

// siftUp moves ev toward the root from slot i until the heap order holds.
func (e *Engine) siftUp(i int, ev *Event) {
	q := e.queue
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown moves ev toward the leaves from slot i until the heap order
// holds, comparing against the minimum of up to four children per level.
func (e *Engine) siftDown(i int, ev *Event) {
	q := e.queue
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q[j], q[m]) {
				m = j
			}
		}
		if !eventLess(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = int32(i)
		i = m
	}
	q[i] = ev
	ev.index = int32(i)
}

// push inserts a pending event into the heap.
func (e *Engine) push(ev *Event) {
	//simlint:allow hotalloc amortized queue growth; steady state reuses storage
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue)-1, ev)
}

// enqueue queues an event scheduled delay after now: into its delay's
// lane when one is free for it, else into the heap.
//
//simlint:hotpath
func (e *Engine) enqueue(delay Time, ev *Event) {
	i := e.laneFor(delay)
	if i < 0 {
		e.push(ev)
		return
	}
	ev.index = inLane
	e.lanes[i].q.Push(ev)
	e.busy |= 1 << i
}

// laneFor returns the index of delay's lane: the lane already holding
// that delay, else an unused lane, else an empty one, since an empty lane
// may change its delay without breaking its order. It returns -1 when
// every lane holds events of another delay.
func (e *Engine) laneFor(delay Time) int {
	empty := -1
	for i := 0; i < e.nlanes; i++ {
		if e.lanes[i].delay == delay {
			return i
		}
		if empty < 0 && e.busy&(1<<i) == 0 {
			empty = i
		}
	}
	if e.nlanes < maxLanes {
		empty = e.nlanes
		e.nlanes++
	}
	if empty >= 0 {
		e.lanes[empty].delay = delay
	}
	return empty
}

// dropCancelled pops and recycles the cancelled events at the head of
// lane i, and returns the pending event behind them; it returns nil, and
// marks the lane empty, when none is left.
func (e *Engine) dropCancelled(i int) *Event {
	q := &e.lanes[i].q
	for q.Len() > 0 {
		h := q.Peek()
		if h.state == statePending {
			return h
		}
		q.Pop()
		e.dead--
		e.recycle(h)
	}
	e.busy &^= 1 << i
	return nil
}

// pop removes and returns the earliest pending event.
func (e *Engine) pop() *Event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0, last)
	}
	top.index = -1
	return top
}

// remove deletes the event at heap slot i (cancellation).
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		e.siftDown(i, last)
		if int(last.index) == i {
			e.siftUp(i, last)
		}
	}
	ev.index = -1
}

// Schedule arranges for fn to run delay nanoseconds after the current
// simulated time. A negative delay panics: time travel indicates a model
// bug and must not be silently clamped. A zero delay is legal and fires
// after all events already scheduled for the current instant.
//
//simlint:hotpath
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: negative delay %d at t=%d", delay, e.now))
	}
	ev := e.alloc(e.now + delay)
	ev.fn = fn
	e.enqueue(delay, ev)
	return ev
}

// At arranges for fn to run at absolute simulated time t, which must not be
// in the past. Absolute-time events go to the heap: a plan planted up
// front (fault injection) would otherwise hold delay lanes for the whole
// run.
//
//simlint:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	ev := e.alloc(t)
	ev.fn = fn
	e.push(ev)
	return ev
}

// scheduleArg is the allocation-free internal scheduling path: fn is a
// package-level function and arg a pooled pointer, so a steady-state
// schedule-and-fire cycle allocates nothing (the Event itself comes from
// the freelist, and a pointer in an interface value does not escape).
//
//simlint:hotpath
func (e *Engine) scheduleArg(delay Time, fn func(any), arg any) *Event {
	if delay < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: negative delay %d at t=%d", delay, e.now))
	}
	ev := e.alloc(e.now + delay)
	ev.afn = fn
	ev.arg = arg
	e.enqueue(delay, ev)
	return ev
}

// Timed pairs a delay with a callback for ScheduleBatch.
type Timed struct {
	Delay Time
	Fn    func()
}

// ScheduleBatch schedules every item relative to the current simulated
// time in one call. Insertion sequence follows slice order, so the firing
// order is identical to calling Schedule in a loop; what changes is cost:
// a batch that is large relative to the pending queue is appended whole
// and re-heapified bottom-up (O(queue+batch)) instead of sifting each
// event up a log-depth path (O(batch·log(queue))) — the shape that
// matters for the per-die fan-out storms at simulation start, where
// thousands of events land in an empty queue.
//
// Batch events return no handles and cannot be cancelled individually; a
// fan-out that needs cancellation schedules through Schedule/At.
//
//simlint:hotpath
func (e *Engine) ScheduleBatch(items []Timed) {
	for i := range items {
		if items[i].Delay < 0 {
			panic(fmt.Sprintf("sim: negative delay %d in batch item %d at t=%d", //simlint:allow hotalloc cold panic path; formatting happens only on a model bug
				items[i].Delay, i, e.now))
		}
	}
	// A batch that outgrows the freelist tops it up with one slab.
	if short := len(items) - len(e.free); short > 0 {
		//simlint:allow hotalloc pool growth: one slab per batch that outgrows the freelist
		slab := make([]Event, short)
		for i := range slab {
			//simlint:allow hotalloc amortized freelist growth; steady state reuses storage
			e.free = append(e.free, &slab[i])
		}
	}
	// Small batches against a deep queue: individual pushes touch fewer
	// slots than a full re-heapify would.
	if len(items) < 8 || len(items) < len(e.queue)>>2 {
		for i := range items {
			ev := e.alloc(e.now + items[i].Delay)
			ev.fn = items[i].Fn
			e.push(ev)
		}
		return
	}
	for i := range items {
		ev := e.alloc(e.now + items[i].Delay)
		ev.fn = items[i].Fn
		ev.index = int32(len(e.queue))
		//simlint:allow hotalloc amortized queue growth; steady state reuses storage
		e.queue = append(e.queue, ev)
	}
	for i := (len(e.queue) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i, e.queue[i])
	}
}

// Cancel removes a scheduled event. Cancelling an event that already
// fired, or was already cancelled, is a harmless no-op — in particular a
// fired event stays Fired (and reports Canceled() == false), so callers
// can always distinguish "ran" from "removed before running". A heap
// event is removed and recycled at once; a lane event stays in its lane
// as a tombstone until it reaches the head, where Step drops it.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	ev.state = stateCanceled
	if ev.index == inLane {
		e.dead++
	} else {
		e.remove(int(ev.index))
		e.recycle(ev)
	}
	if e.trace != nil {
		e.trace.Instant("engine", "cancel", e.now)
	}
}

// Step executes the single earliest pending event and advances the clock to
// its timestamp. It returns false when the queue is empty.
//
//simlint:hotpath
func (e *Engine) Step() bool { return !e.idle() && e.stepUntil(math.MaxInt64) }

// idle reports whether nothing is queued, not even a cancelled lane event.
func (e *Engine) idle() bool { return len(e.queue) == 0 && e.busy == 0 }

// stepUntil executes the earliest pending event if it is due by deadline,
// and reports whether it did. The earliest event is the least (at, seq)
// among the heap top and the lane heads; cancelled events met at a lane
// head are dropped and recycled on the way.
//
//simlint:hotpath
func (e *Engine) stepUntil(deadline Time) bool {
	var ev *Event
	from := -1
	if len(e.queue) > 0 {
		ev = e.queue[0]
	}
	for m := e.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		h := e.lanes[i].q.Peek()
		if h.state != statePending {
			if h = e.dropCancelled(i); h == nil {
				continue
			}
		}
		if ev == nil || eventLess(h, ev) {
			ev, from = h, i
		}
	}
	if ev == nil || ev.at > deadline {
		return false
	}
	if from < 0 {
		e.pop()
	} else {
		q := &e.lanes[from].q
		q.Pop()
		if q.Len() == 0 {
			e.busy &^= 1 << from
		}
		ev.index = -1
	}
	e.now = ev.at
	e.fired++
	ev.state = stateFired
	if e.trace != nil {
		e.trace.Instant("engine", "fire", ev.at)
	}
	// Recycle before running the callback: the common chain shape (an
	// event whose callback schedules the next event) then reuses this very
	// struct, keeping the pool at its steady-state size.
	if fn := ev.fn; fn != nil {
		e.recycle(ev)
		fn()
	} else {
		afn, arg := ev.afn, ev.arg
		e.recycle(ev)
		afn(arg)
	}
	return true
}

// Run executes events until the queue drains or Stop is called, and returns
// the final simulated time.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. The clock advances to the deadline
// only when the loop exhausted the work before it — the queue drained or
// only later events remain; after a Stop the clock stays at the stopping
// event's timestamp, so the returned time reports where the simulation
// actually halted rather than silently jumping to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && !e.idle() && e.stepUntil(deadline) {
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop makes the innermost Run or RunUntil return after the current event
// completes. Pending events are preserved.
func (e *Engine) Stop() { e.stopped = true }
