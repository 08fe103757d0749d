package sim

import "fmt"

// useReq is one pooled Use-path request: the duration to hold a unit and
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
	enqAt   Time // wait-span start; -1 when not enqueued under tracing
	grantAt Time
}

// qent is one FIFO queue slot: either a pooled Use request or an
// Acquire-path grant thunk. Exactly one field is set.
type qent struct {
	w  *useReq
	fn func()
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
	draining bool

	// Waiting requests in arrival order; freeReqs recycles Use-path
	// request structs.
	q        FIFO[qent]
	freeReqs []*useReq

	// Utilisation accounting.
	busyTime   Time // integral of inUse over time, in unit-nanoseconds
	lastChange Time
	grants     uint64
	peakQueue  int
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

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of requests waiting for a unit.
func (r *Resource) QueueLen() int { return r.q.Len() }

// Grants returns how many acquisitions have been granted in total.
func (r *Resource) Grants() uint64 { return r.grants }

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

// enqueue appends a request slot, tracking queue depth.
func (r *Resource) enqueue(ent qent) {
	r.q.Push(ent)
	if n := r.q.Len(); n > r.peakQueue {
		r.peakQueue = n
	}
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.q.Len()))
	}
}

// dequeue pops the FIFO head.
func (r *Resource) dequeue() qent {
	ent := r.q.Pop()
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.q.Len()))
	}
	return ent
}

// Acquire requests one unit. When a unit is available — immediately, or
// once earlier requests release — granted is invoked with a release
// function that must be called exactly once. The grant happens
// synchronously when capacity is free, so callers must not assume a
// simulated-time delay.
//
// Acquire is the flexible (closure-allocating) path; the common
// hold-for-a-duration pattern should use Use, which recycles its request
// and event structs through freelists and allocates nothing in steady
// state.
func (r *Resource) Acquire(granted func(release func())) {
	//simlint:allow hotalloc Acquire is the closure path (see above); its hot caller is the SSD write-cache slot wait
	grant := func() {
		r.account()
		r.inUse++
		r.grants++
		grantAt := r.eng.now
		if t := r.eng.trace; t != nil {
			t.Counter(r.name, "in_use", grantAt, float64(r.inUse))
		}
		released := false
		granted(func() {
			if released {
				panic(fmt.Sprintf("sim: double release of %q", r.name))
			}
			released = true
			if t := r.eng.trace; t != nil {
				t.Span(r.name, "hold", grantAt, r.eng.now)
			}
			r.release()
		})
	}
	// A free unit is handed over only when no earlier request is still
	// queued; capacity can be momentarily free with a non-empty queue
	// while a release drain is in progress, and granting here would let
	// the newcomer overtake FIFO order.
	if r.inUse < r.capacity && r.q.Len() == 0 {
		grant()
		return
	}
	queued := grant
	if t := r.eng.trace; t != nil {
		enqAt := r.eng.now
		//simlint:allow hotalloc Acquire is the closure path (see above); its hot caller is the SSD write-cache slot wait
		queued = func() {
			t.Span(r.name, "wait", enqAt, r.eng.now)
			grant()
		}
	}
	r.enqueue(qent{fn: queued})
}

// grantUse starts service for a Use-path request: one unit is taken and
// the completion event is scheduled through the pooled path.
func (r *Resource) grantUse(w *useReq) {
	r.account()
	r.inUse++
	r.grants++
	w.grantAt = r.eng.now
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", w.grantAt, float64(r.inUse))
	}
	r.eng.scheduleArg(w.d, finishUse, w)
}

// finishUse is the completion callback of a Use-path request (package
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

// release returns one unit and hands freed capacity to queued requests in
// FIFO order. The drain is iterative: a granted waiter that releases
// synchronously re-enters release, which only decrements and returns
// (draining is set), leaving the original loop to grant the next waiter.
// The recursive hand-off this replaces grew the goroutine stack linearly
// with queue depth — a release at the head of a 100k-deep queue built a
// 100k-frame release→grant→release chain before unwinding.
//
//simlint:hotpath
func (r *Resource) release() {
	r.account()
	r.inUse--
	if r.inUse < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: resource %q released below zero", r.name))
	}
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", r.eng.now, float64(r.inUse))
	}
	if r.draining {
		return
	}
	r.draining = true
	for r.inUse < r.capacity && r.q.Len() > 0 {
		ent := r.dequeue()
		if ent.w != nil {
			if ent.w.enqAt >= 0 {
				if t := r.eng.trace; t != nil {
					t.Span(r.name, "wait", ent.w.enqAt, r.eng.now)
				}
			}
			r.grantUse(ent.w)
		} else {
			ent.fn()
		}
	}
	r.draining = false
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
	w.enqAt = -1
	if r.inUse < r.capacity && r.q.Len() == 0 {
		r.grantUse(w)
		return
	}
	if r.eng.trace != nil {
		w.enqAt = r.eng.now
	}
	r.enqueue(qent{w: w})
}

// PeakQueue returns the maximum number of simultaneously waiting requests
// observed.
func (r *Resource) PeakQueue() int { return r.peakQueue }
