package sim

import (
	"math/rand"
	"testing"
)

// handle is what the reference-order test observes of a retained event.
type handle interface {
	At() Time
	Fired() bool
	Canceled() bool
}

// scheduler is the engine surface the reference-order test drives, so one
// script can run on the Engine and on refEngine alike.
type scheduler interface {
	Now() Time
	Schedule(delay Time, fn func()) handle
	At(t Time, fn func()) handle
	ScheduleBatch(items []Timed)
	Cancel(h handle)
	RunUntil(deadline Time) Time
	Stop()
	Pending() int
}

// engineUnderTest adapts *Engine to scheduler.
type engineUnderTest struct{ *Engine }

func (e engineUnderTest) Schedule(d Time, fn func()) handle { return e.Engine.Schedule(d, fn) }
func (e engineUnderTest) At(t Time, fn func()) handle       { return e.Engine.At(t, fn) }
func (e engineUnderTest) Cancel(h handle)                   { e.Engine.Cancel(h.(*Event)) }

// refEvent is one pending or completed event of refEngine.
type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	state uint8
}

func (r *refEvent) At() Time       { return r.at }
func (r *refEvent) Fired() bool    { return r.state == stateFired }
func (r *refEvent) Canceled() bool { return r.state == stateCanceled }

// refEngine is the reference the engine's queue must match: an unsorted
// list of pending events, each step firing the least (at, seq) found by a
// linear scan. It never recycles an event, so its handles stay valid.
type refEngine struct {
	now     Time
	seq     uint64
	pending []*refEvent
	stopped bool
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.pending) }
func (r *refEngine) Stop()        { r.stopped = true }

func (r *refEngine) Schedule(d Time, fn func()) handle { return r.At(r.now+d, fn) }

func (r *refEngine) At(t Time, fn func()) handle {
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, ev)
	return ev
}

func (r *refEngine) ScheduleBatch(items []Timed) {
	for _, it := range items {
		r.Schedule(it.Delay, it.Fn)
	}
}

func (r *refEngine) Cancel(h handle) {
	ev := h.(*refEvent)
	for i, p := range r.pending {
		if p == ev {
			ev.state = stateCanceled
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refEngine) RunUntil(deadline Time) Time {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		m := 0
		for i, p := range r.pending {
			if p.at < r.pending[m].at || (p.at == r.pending[m].at && p.seq < r.pending[m].seq) {
				m = i
			}
		}
		ev := r.pending[m]
		if ev.at > deadline {
			break
		}
		r.pending = append(r.pending[:m], r.pending[m+1:]...)
		r.now = ev.at
		ev.state = stateFired
		ev.fn()
	}
	if !r.stopped && r.now < deadline {
		r.now = deadline
	}
	return r.now
}

// obs is one observation of a scripted run; the engine and the reference
// must produce identical observation sequences.
type obs struct {
	what    string
	a, b, c int64
}

// orderScript drives a scheduler with a seeded random interleaving of
// Schedule, At, ScheduleBatch, Cancel, RunUntil and Stop, and records
// what it observes. The rng is consumed identically on both sides for as
// long as their behaviour agrees, so the first differing observation is
// the first divergence.
type orderScript struct {
	s        scheduler
	rng      *rand.Rand
	classes  int
	log      []obs
	retained []retainedEvent
	nextID   int
}

type retainedEvent struct {
	id int
	h  handle
}

func (o *orderScript) note(what string, a, b, c int64) {
	o.log = append(o.log, obs{what, a, b, c})
}

// event returns the callback of event id: it records the firing, checks
// its own handle while that is still valid, and sometimes schedules more
// work or stops the run.
func (o *orderScript) event(id int) func() {
	return func() {
		o.note("fire", int64(id), int64(o.s.Now()), 0)
		for i, r := range o.retained {
			if r.id == id {
				// The engine recycled the struct just before this callback
				// and has not reused it yet, so the handle still reads true.
				o.note("fired-handle", int64(id), b2i(r.h.Fired()), b2i(r.h.Canceled()))
				o.retained = append(o.retained[:i], o.retained[i+1:]...)
				break
			}
		}
		// One operation half the time keeps the expected number of
		// events each firing plants below one, so every run drains.
		if o.rng.Intn(2) == 0 {
			o.act(false)
		}
		if o.rng.Intn(16) == 0 {
			o.s.Stop()
		}
	}
}

// act performs one random operation; RunUntil only from the top level.
func (o *orderScript) act(top bool) {
	ops := 4
	if top {
		ops = 5
	}
	switch o.rng.Intn(ops) {
	case 0:
		id := o.nextID
		o.nextID++
		h := o.s.Schedule(Time(o.rng.Intn(o.classes)), o.event(id))
		o.retain(id, h)
	case 1:
		id := o.nextID
		o.nextID++
		h := o.s.At(o.s.Now()+Time(o.rng.Intn(2*o.classes)), o.event(id))
		o.retain(id, h)
	case 2:
		n := 4
		if top {
			n = 12
		}
		items := make([]Timed, 1+o.rng.Intn(n))
		for i := range items {
			items[i] = Timed{Delay: Time(o.rng.Intn(o.classes)), Fn: o.event(o.nextID)}
			o.nextID++
		}
		o.s.ScheduleBatch(items)
	case 3:
		if len(o.retained) == 0 {
			return
		}
		k := o.rng.Intn(len(o.retained))
		r := o.retained[k]
		o.retained = append(o.retained[:k], o.retained[k+1:]...)
		o.s.Cancel(r.h)
		o.note("cancel", int64(r.id), b2i(r.h.Fired()), b2i(r.h.Canceled()))
		o.s.Cancel(r.h) // a second Cancel is a no-op
		o.note("recancel", int64(o.s.Pending()), b2i(r.h.Fired()), b2i(r.h.Canceled()))
	case 4:
		deadline := o.s.Now() + Time(o.rng.Intn(3*o.classes))
		o.note("run-until", int64(deadline), int64(o.s.RunUntil(deadline)), 0)
	}
}

// retain keeps h about half the time, so cancellations pick lane events
// at the head and behind it.
func (o *orderScript) retain(id int, h handle) {
	if o.rng.Intn(2) == 0 {
		o.retained = append(o.retained, retainedEvent{id, h})
	}
}

// run executes steps top-level operations, observing Pending and every
// retained (still pending) handle after each, then drains the queue.
func (o *orderScript) run(steps int) {
	for i := 0; i < steps; i++ {
		o.act(true)
		o.note("pending", int64(o.s.Pending()), 0, 0)
		for _, r := range o.retained {
			o.note("handle", int64(r.id), int64(r.h.At()), b2i(r.h.Fired())<<1|b2i(r.h.Canceled()))
		}
	}
	// Stop may cut a drain short; a bounded retry keeps a miscounting
	// Pending from looping forever.
	for i := 0; i < 100 && o.s.Pending() > 0; i++ {
		o.note("drain", int64(o.s.RunUntil(o.s.Now()+1<<40)), 0, 0)
	}
	o.note("pending", int64(o.s.Pending()), 0, 0)
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// TestEngineMatchesReferenceOrder runs seeded random interleavings of the
// whole scheduling API on the engine and on a reference that sorts by
// (at, seq), with more delay classes than the engine has lanes, and
// requires the same firing sequence, clock, Pending count and handle
// states throughout. Delays are small integers, so events of different
// lanes, of the heap and of batches often tie on time and only the
// insertion sequence can order them.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, classes := range []int{3, 2 * maxLanes} {
			got := &orderScript{s: engineUnderTest{NewEngine()}, rng: rand.New(rand.NewSource(seed)), classes: classes}
			want := &orderScript{s: &refEngine{}, rng: rand.New(rand.NewSource(seed)), classes: classes}
			got.run(300)
			want.run(300)
			n := len(got.log)
			if len(want.log) < n {
				n = len(want.log)
			}
			for i := 0; i < n; i++ {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d, %d classes: observation %d is %+v, reference %+v",
						seed, classes, i, got.log[i], want.log[i])
				}
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d, %d classes: %d observations, reference %d",
					seed, classes, len(got.log), len(want.log))
			}
		}
	}
}
