package main

import (
	"runtime/debug"
	"time"
)

// The host this benchmark runs on is shared: on a two-vCPU VM the speed of
// the same code drifts by 20–50% over minutes as other tenants load the
// caches and memory, so ten runs of one commit spread wider than any useful
// regression bound. Every time the benchmark gates is therefore divided by
// the host's speed at that moment, measured with a fixed probe that runs
// between batches of ops (outside their timing) and between set-ups.
//
// The probe is the benchmark's own code and imports nothing from the
// program, so a change to the program cannot change the work it does. It
// has the simulator's shape: a binary heap of pointer events, a map of
// logical pages, chunk allocations and an integer loop. The garbage
// collector is off while it runs, so its time does not depend on the
// program's heap.

// probeRef is the probe's time on the reference host speed the gated
// metrics are expressed at (a quiet moment of a shared two-vCPU Xeon VM).
// It only sets the scale: a time t measured while the probe takes p is
// reported as t·probeRef/p.
const probeRef = 7 * time.Millisecond

// The probe's size: events through the heap, and xorshift rounds.
const (
	probeEvents = 15_000
	probeSpins  = 1_000_000
)

type probeEvent struct {
	at   float64
	seq  int
	page int64
}

type probeQueue []*probeEvent

func (q probeQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *probeQueue) push(e *probeEvent) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *probeQueue) pop() *probeEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// probeSink keeps the probe's results live, so the compiler keeps its work.
var probeSink uint64

// probe runs the fixed probe work once and returns how long it took.
func probe() time.Duration {
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	t0 := time.Now()
	var q probeQueue
	l2p := map[int64]int32{}
	var chunks [][]int32
	x := uint64(88172645463325252)
	for i := 0; i < 256; i++ {
		q.push(&probeEvent{at: float64(i), seq: i, page: int64(i)})
	}
	for n := 0; n < probeEvents; n++ {
		e := q.pop()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		page := int64(x % 200_000)
		l2p[page] = int32(n)
		if n%64 == 0 {
			chunks = append(chunks, make([]int32, 1024))
		}
		q.push(&probeEvent{at: e.at + 1 + float64(x%1000)/100, seq: 256 + n, page: page})
	}
	for i := 0; i < probeSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x + uint64(len(l2p)+len(chunks))
	return time.Since(t0)
}

// atRefSpeed scales a time measured while the probe took p to the
// reference host speed.
func atRefSpeed(t, p time.Duration) time.Duration {
	return time.Duration(float64(t) * float64(probeRef) / float64(p))
}
