// Package sim implements a deterministic discrete-event simulation kernel.
//
// All timing models in this repository (NAND dies, channel buses, PCIe
// links, on-die processing units) are built on this engine. Time is a
// simple int64 nanosecond counter; events are Handlers ordered by
// (time, insertion sequence), which makes every run bit-for-bit
// reproducible regardless of map iteration order or goroutine scheduling —
// the engine is strictly single-threaded.
//
// A Handler is the one form a continuation takes, whether the engine
// fires it or an asynchronous verb (Resource.Use, a NAND die, a device
// operation) calls it on completion. Pooled records implement it
// themselves, so handing one over allocates nothing; Func adapts a plain
// closure.
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

// Handler is a continuation: what an event runs when it fires, and what
// every asynchronous verb calls when its work completes.
type Handler interface {
	Fire()
}

// Func adapts a plain closure to a Handler. A func value is
// pointer-shaped, so the conversion allocates nothing beyond the closure.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

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
// exactly once, by firing or by cancellation.
const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// Event is a scheduled handler. The scheduling methods return it as an
// opaque handle whose only use is to be passed to Cancel before the event
// fires.
//
// Events are pooled: once an event has fired or been cancelled the engine
// recycles the struct for a later After/Schedule/At call, and the handle
// may then name another caller's event. Drop a handle when its event fires
// (clear it in the handler) or right after Cancel.
//
//simlint:pooled
type Event struct {
	at  Time
	seq uint64
	h   Handler
	// next links the event to the one behind it in its delay lane.
	next *Event
	// index is the event's heap slot, inLane while it waits in a delay
	// lane, or -1 once it has left the queue.
	index int32
	state uint8
}

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

// lane is a queue of pending events that were all scheduled with one
// delay, linked through their next fields from head to tail. Neither the
// clock nor the insertion sequence ever decreases, so events entering a
// lane with a fixed delay arrive in (at, seq) order and the lane is
// sorted without any sifting. A lane holds no storage of its own: an
// event waits in place, in the pooled record it already is.
type lane struct {
	delay      Time
	head, tail *Event
}

// push links ev, fresh from alloc and so unlinked, in at the tail.
func (l *lane) push(ev *Event) {
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

// pop unlinks the head event; the lane must be non-empty.
func (l *lane) pop() {
	l.head = l.head.next
	if l.head == nil {
		l.tail = nil
	}
}

// Engine is a discrete-event simulator instance. The zero value is not
// usable; construct with NewEngine.
//
// Pending events live in up to maxLanes delay lanes, one linked queue per
// delay class that After and Schedule use, plus an inlined
// 4-ary min-heap for everything else: delays beyond the lane cap and
// absolute-time At calls. step fires the least (at, seq) among the lane
// heads and the heap top, so the firing order is the engine's total
// order whichever structure holds an event. The heap is specialized to
// *Event: compared to container/heap's binary heap over an interface, it
// removes interface dispatch on every comparison and swap, halves tree
// depth, and sifts with direct slice writes.
type Engine struct {
	now     Time
	seq     uint64
	queue   []*Event
	lanes   [maxLanes]lane
	nlanes  int    // lanes assigned a delay so far; lanes[nlanes:] are unused
	busy    uint16 // bit i set while lanes[i] holds events, tombstones included
	fired   uint64
	stopped bool
	trace   Tracer

	// The engine's record pools: events (see Event), and the requests of
	// every Resource and Preemptible on the engine, so a resource's first
	// use takes a request warmed by any other.
	events Freelist[Event]
	reqs   Freelist[useReq]
	ops    Freelist[pendingOp]
}

// engines holds the engines given back by Release.
var engines Shelf[Engine]

// NewEngine returns an empty engine at time zero, one given back by
// Release when the shelf holds one.
func NewEngine() *Engine {
	e := engines.Take()
	if e == nil {
		e = new(Engine)
	}
	return e
}

// Release hands the engine back for a later NewEngine to take: it zeroes
// every record its pools have carved and keeps their slabs and the
// heap's capacity. Nothing may use the engine, or any resource, event
// handle or record of it, afterwards.
func (e *Engine) Release() {
	e.events.Reset()
	e.reqs.Reset()
	e.ops.Reset()
	*e = Engine{queue: e.queue[:0], events: e.events, reqs: e.reqs, ops: e.ops}
	engines.Give(e)
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

// alloc takes an Event from the freelist, which a dry list refills with a
// slab of events (a burst posted at once, such as the gradient arrivals
// of a run, then costs one allocation per slab), and initializes it as
// pending at time t.
//
//simlint:hotpath
func (e *Engine) alloc(t Time) *Event {
	ev := e.events.Get()
	*ev = Event{at: t, seq: e.seq}
	e.seq++
	return ev
}

// recycle returns a completed (fired or cancelled) event to the freelist.
// The handler is dropped immediately so the pool never pins model
// records; the state stays, so a Cancel through a handle not yet dropped
// is still a no-op until the struct is reused.
//
//simlint:hotpath
//simlint:release
func (e *Engine) recycle(ev *Event) {
	ev.h = nil
	e.events.Put(ev)
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
	e.lanes[i].push(ev)
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
	l := &e.lanes[i]
	for l.head != nil {
		h := l.head
		if h.state == statePending {
			return h
		}
		l.pop()
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

// After arranges for h to fire delay nanoseconds after the current
// simulated time. A negative delay panics: time travel indicates a model
// bug and must not be silently clamped. A zero delay is legal and fires
// after all events already scheduled for the current instant.
//
//simlint:hotpath
func (e *Engine) After(delay Time, h Handler) *Event {
	if delay < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: negative delay %d at t=%d", delay, e.now))
	}
	ev := e.alloc(e.now + delay)
	ev.h = h
	e.enqueue(delay, ev)
	return ev
}

// Schedule arranges for fn to run delay nanoseconds after the current
// simulated time, as After does.
//
//simlint:hotpath
func (e *Engine) Schedule(delay Time, fn func()) *Event { return e.After(delay, Func(fn)) }

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
	ev.h = Func(fn)
	e.push(ev)
	return ev
}

// Cancel removes a scheduled event. Cancelling nil, or an event that
// already fired or was already cancelled (and not yet reused), is a
// harmless no-op. A heap event is removed and recycled at once; a lane
// event stays in its lane as a tombstone until it reaches the head, where
// step drops it.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	ev.state = stateCanceled
	if ev.index != inLane {
		e.remove(int(ev.index))
		e.recycle(ev)
	}
	if e.trace != nil {
		e.trace.Instant("engine", "cancel", e.now)
	}
}

// step executes the earliest pending event, advancing the clock to its
// timestamp, and reports whether there was one. The earliest event is the
// least (at, seq) among the heap top and the lane heads; cancelled events
// met at a lane head are dropped and recycled on the way.
//
//simlint:hotpath
func (e *Engine) step() bool {
	var ev *Event
	from := -1
	if len(e.queue) > 0 {
		ev = e.queue[0]
	}
	for m := e.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		h := e.lanes[i].head
		if h.state != statePending {
			if h = e.dropCancelled(i); h == nil {
				continue
			}
		}
		if ev == nil || eventLess(h, ev) {
			ev, from = h, i
		}
	}
	if ev == nil {
		return false
	}
	if from < 0 {
		e.pop()
	} else {
		l := &e.lanes[from]
		l.pop()
		if l.head == nil {
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
	// Recycle before running the handler: the common chain shape (an
	// event whose handler schedules the next event) then reuses this very
	// struct, keeping the pool at its steady-state size.
	h := ev.h
	e.recycle(ev)
	h.Fire()
	return true
}

// Run executes events until the queue drains or Stop is called, and returns
// the final simulated time. After a Stop the clock stays at the stopping
// event's timestamp, the pending events are kept, and a later Run resumes
// them.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.step() {
	}
	return e.now
}

// Stop makes the innermost Run return after the current event completes.
// Pending events are preserved.
func (e *Engine) Stop() { e.stopped = true }
