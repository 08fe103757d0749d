package sim

import "fmt"

// useReq is one pooled request: the duration to hold a unit and
// the caller's handler. Requests live on the engine's freelist
// between uses, shared by every resource on the engine, so a
// steady-state Use cycle allocates nothing — the request is itself the
// handler of its completion event, and it waits in its resource's queue
// in place, linked through next. r is set when a request is taken.
//
//simlint:pooled
type useReq struct {
	r    *Resource
	next *useReq
	d    Time
	done Handler
	// at is when the request entered the queue while it waits, then when
	// it was granted: the wait span ends where the hold begins.
	at Time
}

// reqQueue is a resource's waiting requests in arrival order, linked
// from head to tail through their next fields.
type reqQueue struct {
	head, tail *useReq
	n          int
}

// push links w in at the tail.
func (q *reqQueue) push(w *useReq) {
	w.next = nil
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
	q.n++
}

// pop unlinks and returns the head request; the queue must be non-empty.
func (q *reqQueue) pop() *useReq {
	w := q.head
	q.head = w.next
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	return w
}

// Resource models a server (or pool of identical servers) with a FIFO
// request queue: a NAND plane, a channel bus, a DMA engine, a PCIe link.
// Requests acquire one unit of capacity, hold it for a caller-determined
// duration, and release it; waiting requests are granted strictly in
// arrival order, which keeps simulations deterministic.
//
// When the engine carries a Tracer, the resource reports its activity on
// a track named after the resource: one "hold" span per grant→release
// interval (their sum is exactly the busy-time integral Utilization is
// computed from), one "wait" span per queued request, and "in_use"/
// "queue" counter samples at every transition. With no tracer every hook
// is a single nil-check branch.
//
// An owner may hold a Resource by value and build it in place with Init;
// NewResource allocates one.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int

	// Waiting requests in arrival order.
	q reqQueue

	// Utilisation accounting.
	busyTime   Time // integral of inUse over time, in unit-nanoseconds
	lastChange Time
}

// NewResource creates a resource with the given capacity (number of
// identical servers). Capacity must be positive.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	r := &Resource{}
	r.Init(eng, name, capacity)
	return r
}

// Init builds the resource in place, as NewResource does: an owner that
// holds resources by value (a table of NAND planes) builds them without
// an allocation each. The name is the resource's trace track; an
// untraced engine never reads it.
func (r *Resource) Init(eng *Engine, name string, capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	*r = Resource{eng: eng, name: name, capacity: capacity}
}

func (r *Resource) account() {
	now := r.eng.Now()
	r.busyTime += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization returns the mean fraction of capacity that was busy between
// simulation start and the current time. Returns 0 before time advances.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	total := r.busyTime + Time(r.inUse)*(now-r.lastChange)
	if now == 0 {
		return 0
	}
	return float64(total) / (float64(now) * float64(r.capacity))
}

// getReq takes a request for r off the engine's freelist.
//
//simlint:hotpath
func (r *Resource) getReq() *useReq {
	w := r.eng.reqs.Get()
	w.r = r
	return w
}

// putReq returns a request to the engine's freelist.
//
//simlint:hotpath
//simlint:release
func (r *Resource) putReq(w *useReq) {
	w.done = nil
	r.eng.reqs.Put(w)
}

// grantUse starts service for a request: one unit is taken and
// the request's completion event is scheduled.
func (r *Resource) grantUse(w *useReq) {
	r.account()
	r.inUse++
	w.at = r.eng.now
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", w.at, float64(r.inUse))
	}
	r.eng.After(w.d, w)
}

// Fire completes the request: release the unit, recycle the request,
// then fire the caller's handler.
func (w *useReq) Fire() {
	r := w.r
	if t := r.eng.trace; t != nil {
		t.Span(r.name, "hold", w.at, r.eng.now)
	}
	done := w.done
	r.putReq(w)
	r.release()
	if done != nil {
		done.Fire()
	}
}

// release returns one unit and hands it to the head of the queue, if a
// request waits. A granted request only schedules its completion, so
// nothing re-enters release while it runs.
//
//simlint:hotpath
func (r *Resource) release() {
	r.account()
	r.inUse--
	if r.inUse < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: resource %q released below zero", r.name))
	}
	t := r.eng.trace
	if t != nil {
		t.Counter(r.name, "in_use", r.eng.now, float64(r.inUse))
	}
	if r.q.n == 0 {
		return
	}
	w := r.q.pop()
	if t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.q.n))
		t.Span(r.name, "wait", w.at, r.eng.now)
	}
	r.grantUse(w)
}

// Use is the common acquire–hold–release pattern: wait for a unit, hold it
// for d nanoseconds of simulated time, then release and fire done (which
// may be nil). It returns immediately; everything happens via events.
//
// This is the kernel's hottest path (every NAND array operation, bus
// transfer and link transfer goes through it); the request and its
// completion event are recycled through freelists, so steady-state Use
// costs zero heap allocations (pinned by TestDisabledTracerAddsNoAllocations).
//
//simlint:hotpath
func (r *Resource) Use(d Time, done Handler) {
	w := r.getReq()
	w.d = d
	w.done = done
	// A unit is free only while no request waits: release hands each
	// freed unit straight to the head of the queue.
	if r.inUse < r.capacity {
		r.grantUse(w)
		return
	}
	w.at = r.eng.now
	r.q.push(w)
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.q.n))
	}
}
