package ssd

import (
	"fmt"

	"repro/internal/sim"
)

// QueuePair models an NVMe submission/completion queue pair: at most
// `depth` commands are outstanding on the device; submissions beyond that
// wait host-side in FIFO order. Latency-sensitive workloads live or die by
// queue depth — QD1 exposes full device latency per command, deep queues
// let the channel/plane parallelism absorb it.
type QueuePair struct {
	slots     *sim.Resource
	submitted uint64
	completed uint64
}

// NewQueuePair creates a queue pair with the given depth (≥1).
func NewQueuePair(eng *sim.Engine, name string, depth int) *QueuePair {
	if depth < 1 {
		panic(fmt.Sprintf("ssd: queue depth %d", depth))
	}
	return &QueuePair{slots: sim.NewResource(eng, name+"/qd", depth)}
}

// Depth returns the queue depth.
func (q *QueuePair) Depth() int { return q.slots.Capacity() }

// Outstanding returns the commands currently on the device.
func (q *QueuePair) Outstanding() int { return q.slots.InUse() }

// Waiting returns the submissions blocked host-side.
func (q *QueuePair) Waiting() int { return q.slots.QueueLen() }

// Submitted and Completed return lifetime counters.
func (q *QueuePair) Submitted() uint64 { return q.submitted }

// Completed returns the number of finished commands.
func (q *QueuePair) Completed() uint64 { return q.completed }

// Submit enqueues a command. op receives a completion callback it must
// invoke exactly once; done (optional) fires after the slot is released.
func (q *QueuePair) Submit(op func(complete func()), done func()) {
	q.submitted++
	c := &command{q: q, op: op, done: done}
	q.slots.Acquire(&c.slot, c.start)
}

// command is one submitted command: its queue slot and callbacks.
type command struct {
	q    *QueuePair
	slot sim.Grant
	op   func(complete func())
	done func()
}

// start issues the command once it holds a queue slot.
func (c *command) start() { c.op(c.complete) }

// complete releases the slot, then runs the submitter's callback.
func (c *command) complete() {
	c.q.completed++
	c.q.slots.Release(&c.slot)
	if c.done != nil {
		c.done()
	}
}

// Utilization returns the mean occupied fraction of the queue.
func (q *QueuePair) Utilization() float64 { return q.slots.Utilization() }
