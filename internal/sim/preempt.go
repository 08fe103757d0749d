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

	busy bool
	// completing is set while an operation's completion callback runs: the
	// server looks idle then, but what runs next is dispatch's choice.
	completing bool
	curLowPri  bool
	curEnd     *Event
	curOp      *pendingOp
	curFinish  Time
	// curOverhead is the resume-overhead share at the front of the
	// current service interval: zero for a fresh operation,
	// ResumeOverhead for a resumed one. Suspending again nets out the
	// portion not yet consumed, so overhead never compounds across
	// repeated suspends (see suspendCurrent).
	curOverhead Time

	suspended    suspendedOp
	hasSuspended bool
	hiQueue      FIFO[*pendingOp]
	loQueue      FIFO[*pendingOp]

	preemptions uint64
	curStart    Time
}

// pendingOp is one queued or in-service operation. Ops are recycled
// through the engine's freelist, shared by every Preemptible on the
// engine, and double as the completion-event argument, so a steady-state
// Use cycle allocates nothing. p is set when an op is taken.
//
//simlint:pooled
type pendingOp struct {
	p      *Preemptible
	d      Time
	done   func()
	lowPri bool
}

type suspendedOp struct {
	remaining Time
	done      func()
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

// getOp takes an op for p off the engine's freelist.
//
//simlint:hotpath
func (p *Preemptible) getOp() *pendingOp {
	op := p.eng.ops.Get()
	op.p = p
	return op
}

// putOp returns an op to the engine's freelist.
//
//simlint:hotpath
//simlint:release
func (p *Preemptible) putOp(op *pendingOp) {
	op.done = nil
	p.eng.ops.Put(op)
}

// Use runs a preemptible (low-priority) operation of duration d, then done.
//
//simlint:hotpath
func (p *Preemptible) Use(d Time, done func()) {
	op := p.getOp()
	op.d, op.done, op.lowPri = d, done, true
	p.submit(op)
}

// UsePriority runs a high-priority operation of duration d, suspending the
// current low-priority occupant if necessary, then done.
//
//simlint:hotpath
func (p *Preemptible) UsePriority(d Time, done func()) {
	op := p.getOp()
	op.d, op.done, op.lowPri = d, done, false
	p.submit(op)
}

// submit starts op, or queues it while the server is busy. Inside a
// completion callback op always queues: starting it there would overtake
// the high-priority queue and the suspended operation, which dispatch
// considers first once the callback returns.
func (p *Preemptible) submit(op *pendingOp) {
	if !op.lowPri && p.busy && p.curLowPri {
		p.suspendCurrent()
	}
	if p.busy || p.completing {
		if op.lowPri {
			p.loQueue.Push(op)
		} else {
			p.hiQueue.Push(op)
		}
		return
	}
	p.start(op.d, op.done, op.lowPri, 0)
	p.putOp(op)
}

// suspendCurrent captures the occupant's remaining *work* and cancels its
// completion event. If the occupant was itself a resumed operation, part
// of its service interval is resume overhead rather than work; whatever
// overhead has not elapsed yet is netted out, because the next resume
// charges a fresh ResumeOverhead. Carrying it forward instead (the
// pre-fix behaviour) compounded one extra overhead per suspend, inflating
// program latency under read-heavy interference.
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
	p.suspended = suspendedOp{remaining: remaining, done: p.curOp.done}
	p.putOp(p.curOp)
	p.curOp = nil
	p.hasSuspended = true
	p.preemptions++
	p.busy = false
	p.curEnd = nil
}

func (p *Preemptible) start(d Time, done func(), lowPri bool, overhead Time) {
	p.busy = true
	p.curLowPri = lowPri
	p.curStart = p.eng.Now()
	p.curFinish = p.eng.Now() + d
	p.curOverhead = overhead
	op := p.getOp()
	op.done = done
	p.curOp = op
	p.curEnd = p.eng.scheduleArg(d, finishPreemptible, op)
}

// finishPreemptible is the completion callback of the in-service
// operation (package function: scheduling it allocates no closure).
//
//simlint:hotpath
func finishPreemptible(arg any) {
	op := arg.(*pendingOp)
	p := op.p
	done := op.done
	p.curOp = nil
	p.putOp(op)
	p.busy = false
	p.curEnd = nil
	if done != nil {
		p.completing = true
		done()
		p.completing = false
	}
	p.dispatch()
}

// dispatch picks the next work item: high-priority queue, then the
// suspended operation, then the low-priority queue.
func (p *Preemptible) dispatch() {
	if p.busy {
		return
	}
	if p.hiQueue.Len() > 0 {
		op := p.hiQueue.Pop()
		p.start(op.d, op.done, false, 0)
		p.putOp(op)
		return
	}
	if p.hasSuspended {
		s := p.suspended
		p.suspended = suspendedOp{}
		p.hasSuspended = false
		p.start(s.remaining+p.ResumeOverhead, s.done, true, p.ResumeOverhead)
		return
	}
	if p.loQueue.Len() > 0 {
		op := p.loQueue.Pop()
		p.start(op.d, op.done, true, 0)
		p.putOp(op)
	}
}
