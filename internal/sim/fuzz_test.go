package sim

import "testing"

// firedRecord is one trace entry: which scheduled event fired, when, and
// when it was due.
type firedRecord struct {
	id  int
	at  Time
	due Time
}

// runSchedule interprets the fuzz input as a schedule: a few root events
// are planted up front, and every firing event plants up to two children,
// so the queue sees interleaved, recursively generated load. Each byte is
// one plant: the top three bits choose the operation and the low five a
// delay, 32 classes against the engine's 16 lanes, so lanes overflow to
// the heap and are reassigned as they drain.
//
//	0–3  Schedule a child with the byte's delay
//	4    Schedule a child and cancel it at once (a tombstone at its lane's tail)
//	5    cancel a pending Schedule/At child, chosen by the delay bits, at a
//	     lane's head, behind it or in the heap
//	6    At(now + delay), an absolute-time child
//	7    a burst of 2–9 At children at one time, now + delay
//
// Events that fire after being cancelled report id -1 or a cancelled id.
func runSchedule(data []byte) (trace []firedRecord, cancelled map[int]bool) {
	e := NewEngine()
	cancelled = make(map[int]bool)
	type pendingEvent struct {
		id int
		ev *Event
	}
	var pending []pendingEvent // cancellable children not yet fired
	pos, nextID := 0, 0
	var plant func()
	child := func(due Time) (int, func()) {
		id := nextID
		nextID++
		return id, func() {
			trace = append(trace, firedRecord{id: id, at: e.Now(), due: due})
			for i, p := range pending {
				if p.id == id {
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
			plant()
			plant()
		}
	}
	plant = func() {
		if pos >= len(data) {
			return
		}
		b := data[pos]
		pos++
		delay := Time(b & 0x1F)
		switch b >> 5 {
		case 4:
			ev := e.Schedule(delay, func() {
				trace = append(trace, firedRecord{id: -1, at: e.Now()})
			})
			e.Cancel(ev)
		case 5:
			if len(pending) == 0 {
				return
			}
			k := int(b&0x1F) % len(pending)
			cancelled[pending[k].id] = true
			e.Cancel(pending[k].ev)
			pending = append(pending[:k], pending[k+1:]...)
		case 6:
			id, fn := child(e.Now() + delay)
			pending = append(pending, pendingEvent{id, e.At(e.Now()+delay, fn)})
		case 7:
			at := e.Now() + delay
			for i := 2 + int(b&7); i > 0; i-- {
				_, fn := child(at)
				e.At(at, fn)
			}
		default:
			id, fn := child(e.Now() + delay)
			pending = append(pending, pendingEvent{id, e.Schedule(delay, fn)})
		}
	}
	for i := 0; i < 4; i++ {
		plant()
	}
	e.Run()
	if pendingEvents(e) != 0 {
		panic("Run returned with events still pending")
	}
	return trace, cancelled
}

// FuzzEngineOrdering checks the engine's core guarantees on arbitrary
// recursively generated schedules: events fire in nondecreasing simulated
// time with ties broken by insertion order, each at the time it was
// scheduled for, no cancelled event ever fires, and the whole run is
// bit-reproducible — an identical schedule yields an identical trace.
// The committed corpus holds one entry per queue shape: lane overflow,
// lane cancellation, lane reassignment, At and same-time At burst mixes.
func FuzzEngineOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                     // all at t=0: pure FIFO
	f.Add([]byte{5, 3, 5, 1, 0x85, 2, 9})         // ties + a cancellation
	f.Add([]byte{15, 0, 7, 0x80, 1, 1, 1, 14, 3}) // deep nesting
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("bounded schedule budget")
		}
		trace, cancelled := runSchedule(data)
		for i, r := range trace {
			if r.id == -1 || cancelled[r.id] {
				t.Fatalf("cancelled event %d fired at %v (trace index %d)", r.id, r.at, i)
			}
			if r.at != r.due {
				t.Fatalf("event %d fired at %v, scheduled for %v", r.id, r.at, r.due)
			}
			if i == 0 {
				continue
			}
			prev := trace[i-1]
			if r.at < prev.at {
				t.Fatalf("time ran backwards: event %d at %v after event %d at %v",
					r.id, r.at, prev.id, prev.at)
			}
			// ids follow Schedule/At call order, which is
			// exactly the engine's insertion sequence, so ties must fire in
			// id order.
			if r.at == prev.at && r.id < prev.id {
				t.Fatalf("tie at %v broke insertion order: event %d fired after event %d",
					r.at, r.id, prev.id)
			}
		}
		again, _ := runSchedule(data)
		if len(again) != len(trace) {
			t.Fatalf("rerun fired %d events, first run %d", len(again), len(trace))
		}
		for i := range trace {
			if trace[i] != again[i] {
				t.Fatalf("rerun diverged at index %d: %+v vs %+v", i, trace[i], again[i])
			}
		}
	})
}
