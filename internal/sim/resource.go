package sim

import "fmt"

// useReq is one pooled request: the duration to hold a unit and
// the completion callback. Requests live on the resource's freelist
// between uses, so a steady-state Use cycle allocates nothing — the
// request struct doubles as the argument of the completion event
// (scheduleArg), replacing the three closures the old path allocated.
//
//simlint:pooled
type useReq struct {
	r       *Resource
	d       Time
	done    func()
	enqAt   Time // wait-span start
	grantAt Time
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
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int

	// Waiting requests in arrival order; freeReqs recycles request
	// structs.
	q        FIFO[*useReq]
	freeReqs []*useReq

	// Utilisation accounting.
	busyTime   Time // integral of inUse over time, in unit-nanoseconds
	lastChange Time
}

// NewResource creates a resource with the given capacity (number of
// identical servers). Capacity must be positive.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

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

//simlint:hotpath
func (r *Resource) getReq() *useReq {
	if n := len(r.freeReqs); n > 0 {
		w := r.freeReqs[n-1]
		r.freeReqs[n-1] = nil
		r.freeReqs = r.freeReqs[:n-1]
		return w
	}
	//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
	return &useReq{r: r}
}

//simlint:hotpath
//simlint:release
func (r *Resource) putReq(w *useReq) {
	w.done = nil
	//simlint:allow hotalloc amortized freelist growth; steady state reuses storage
	r.freeReqs = append(r.freeReqs, w)
}

// grantUse starts service for a request: one unit is taken and
// the completion event is scheduled through the pooled path.
func (r *Resource) grantUse(w *useReq) {
	r.account()
	r.inUse++
	w.grantAt = r.eng.now
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", w.grantAt, float64(r.inUse))
	}
	r.eng.scheduleArg(w.d, finishUse, w)
}

// finishUse is the completion callback of a request (package
// function, so scheduling it allocates no closure): release the unit,
// recycle the request, then run the caller's callback.
//
//simlint:hotpath
func finishUse(arg any) {
	w := arg.(*useReq)
	r := w.r
	if t := r.eng.trace; t != nil {
		t.Span(r.name, "hold", w.grantAt, r.eng.now)
	}
	done := w.done
	r.putReq(w)
	r.release()
	if done != nil {
		done()
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
	if r.q.Len() == 0 {
		return
	}
	w := r.q.Pop()
	if t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.q.Len()))
		t.Span(r.name, "wait", w.enqAt, r.eng.now)
	}
	r.grantUse(w)
}

// Use is the common acquire–hold–release pattern: wait for a unit, hold it
// for d nanoseconds of simulated time, then release and call done (which
// may be nil). It returns immediately; everything happens via events.
//
// This is the kernel's hottest path (every NAND array operation, bus
// transfer and link transfer goes through it); the request and its
// completion event are recycled through freelists, so steady-state Use
// costs zero heap allocations (pinned by TestDisabledTracerAddsNoAllocations).
//
//simlint:hotpath
func (r *Resource) Use(d Time, done func()) {
	w := r.getReq()
	w.d = d
	w.done = done
	// A unit is free only while no request waits: release hands each
	// freed unit straight to the head of the queue.
	if r.inUse < r.capacity {
		r.grantUse(w)
		return
	}
	w.enqAt = r.eng.now
	r.q.Push(w)
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.q.Len()))
	}
}
