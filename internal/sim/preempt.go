package sim

import "fmt"

// Preemptible is a capacity-1 server whose low-priority occupant can be
// suspended by high-priority requests — the model for NAND program/erase
// suspend: a page read (tens of µs) preempts an in-flight program
// (hundreds of µs), which then resumes where it left off plus a resume
// overhead.
//
// Scheduling rules:
//   - high-priority requests run ahead of every queued low-priority one,
//     and suspend the current occupant if it is low-priority;
//   - a suspended occupant resumes (remaining time + ResumeOverhead) once
//     no high-priority work is pending;
//   - high-priority work never preempts high-priority work.
type Preemptible struct {
	eng *Engine

	// ResumeOverhead is added to the remaining time of a suspended
	// operation each time it resumes.
	ResumeOverhead Time

	// completing is set while an operation's handler runs: the server
	// looks idle then, but what runs next is dispatch's choice.
	completing bool
	// cur is the operation in service, nil while the server is idle; its
	// completion event is curEnd.
	cur       *pendingOp
	curEnd    *Event
	curFinish Time
	// curOverhead is the resume-overhead share at the front of the
	// current service interval: zero for a fresh operation,
	// ResumeOverhead for a resumed one. Suspending again nets out the
	// portion not yet consumed, so overhead never compounds across
	// repeated suspends (see suspendCurrent).
	curOverhead Time

	// suspended is the preempted low-priority operation, its remaining
	// work in d; nil when none is.
	suspended *pendingOp
	hiQueue   pendingQueue
	loQueue   pendingQueue

	preemptions uint64
	curStart    Time
}

// pendingOp is one operation from submission to completion: queued, in
// service, suspended and resumed as one record. Ops are recycled through
// the engine's freelist, shared by every Preemptible on the engine, and
// each is the handler of its own completion event and waits in its queue
// in place, linked through next, so a steady-state Use cycle allocates
// nothing. p is set when an op is taken.
//
//simlint:pooled
type pendingOp struct {
	p      *Preemptible
	next   *pendingOp
	d      Time
	done   Handler
	lowPri bool
}

// pendingQueue is a priority class's waiting ops in arrival order, linked
// from head to tail through their next fields.
type pendingQueue struct {
	head, tail *pendingOp
}

// push links op in at the tail.
func (q *pendingQueue) push(op *pendingOp) {
	op.next = nil
	if q.tail == nil {
		q.head = op
	} else {
		q.tail.next = op
	}
	q.tail = op
}

// pop unlinks and returns the head op; the queue must be non-empty.
func (q *pendingQueue) pop() *pendingOp {
	op := q.head
	q.head = op.next
	if q.head == nil {
		q.tail = nil
	}
	return op
}

// NewPreemptible builds the resource on its own.
//
//simlint:allow unused the package's runnable example builds one; a device's planes use Init
func NewPreemptible(eng *Engine, resumeOverhead Time) *Preemptible {
	p := &Preemptible{}
	p.Init(eng, resumeOverhead)
	return p
}

// Init builds the resource in place: an owner holds preemptible servers
// by value (a table of NAND planes) and builds them without an allocation
// each. A negative resume overhead panics.
func (p *Preemptible) Init(eng *Engine, resumeOverhead Time) {
	if resumeOverhead < 0 {
		panic(fmt.Sprintf("sim: resume overhead %d", resumeOverhead))
	}
	*p = Preemptible{eng: eng, ResumeOverhead: resumeOverhead}
}

// Preemptions returns how many suspends occurred.
func (p *Preemptible) Preemptions() uint64 { return p.preemptions }

// submit takes an op for p off the engine's freelist and starts it, or
// queues it while the server is busy. Inside a completion handler the op
// always queues: starting it there would overtake the high-priority
// queue and the suspended operation, which dispatch considers first once
// the handler returns.
//
//simlint:hotpath
func (p *Preemptible) submit(d Time, done Handler, lowPri bool) {
	op := p.eng.ops.Get()
	op.p, op.d, op.done, op.lowPri = p, d, done, lowPri
	if !lowPri && p.cur != nil && p.cur.lowPri {
		p.suspendCurrent()
	}
	switch {
	case p.cur == nil && !p.completing:
		p.start(op, 0)
	case lowPri:
		p.loQueue.push(op)
	default:
		p.hiQueue.push(op)
	}
}

// putOp returns an op to the engine's freelist.
//
//simlint:hotpath
//simlint:release
func (p *Preemptible) putOp(op *pendingOp) {
	op.done = nil
	p.eng.ops.Put(op)
}

// Use runs a preemptible (low-priority) operation of duration d, then
// fires done.
//
//simlint:hotpath
func (p *Preemptible) Use(d Time, done Handler) { p.submit(d, done, true) }

// UsePriority runs a high-priority operation of duration d, suspending the
// current low-priority occupant if necessary, then fires done.
//
//simlint:hotpath
func (p *Preemptible) UsePriority(d Time, done Handler) { p.submit(d, done, false) }

// suspendCurrent keeps the occupant's remaining *work* in its record and
// cancels its completion event. If the occupant was itself a resumed
// operation, part of its service interval is resume overhead rather than
// work; whatever overhead has not elapsed yet is netted out, because the
// next resume charges a fresh ResumeOverhead. Carrying it forward instead
// (the pre-fix behaviour) compounded one extra overhead per suspend,
// inflating program latency under read-heavy interference.
func (p *Preemptible) suspendCurrent() {
	now := p.eng.Now()
	remaining := p.curFinish - now
	if remaining < 0 {
		remaining = 0
	}
	if unconsumed := p.curOverhead - (now - p.curStart); unconsumed > 0 {
		remaining -= unconsumed
		if remaining < 0 {
			remaining = 0
		}
	}
	p.eng.Cancel(p.curEnd)
	p.cur.d = remaining
	p.suspended = p.cur
	p.cur = nil
	p.preemptions++
	p.curEnd = nil
}

// start serves op for op.d, of which the first overhead is resume
// overhead.
func (p *Preemptible) start(op *pendingOp, overhead Time) {
	p.cur = op
	p.curStart = p.eng.Now()
	p.curFinish = p.curStart + op.d
	p.curOverhead = overhead
	p.curEnd = p.eng.After(op.d, op)
}

// Fire completes the op in service: the server frees, the op is
// recycled, the caller's handler fires and dispatch picks what runs next.
func (op *pendingOp) Fire() {
	p := op.p
	done := op.done
	p.cur = nil
	p.putOp(op)
	p.curEnd = nil
	if done != nil {
		p.completing = true
		done.Fire()
		p.completing = false
	}
	p.dispatch()
}

// dispatch picks the next work item: high-priority queue, then the
// suspended operation, then the low-priority queue.
func (p *Preemptible) dispatch() {
	switch {
	case p.cur != nil:
	case p.hiQueue.head != nil:
		p.start(p.hiQueue.pop(), 0)
	case p.suspended != nil:
		op := p.suspended
		p.suspended = nil
		op.d += p.ResumeOverhead
		p.start(op, p.ResumeOverhead)
	case p.loQueue.head != nil:
		p.start(p.loQueue.pop(), 0)
	}
}
