package sim

// FIFO is a first-in first-out queue over one slice and a head cursor.
// Pop advances the cursor instead of reslicing, and Push makes room in a
// full array before appending: the live entries slide to the front when
// at least half of the array is drained slots, and otherwise move to a
// new array twice the depth the queue is about to reach. A queue that
// never empties therefore keeps reusing its drained slots, and its array
// stays within twice its peak depth. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) {
		q.makeRoom()
	}
	//simlint:allow hotalloc never grows: makeRoom has just left spare capacity
	q.items = append(q.items, v)
}

// Pop removes and returns the head entry; the queue must be non-empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// makeRoom frees at least one slot at the tail of a full array.
func (q *FIFO[T]) makeRoom() {
	live := q.items[q.head:]
	if q.head > 0 && q.head >= len(q.items)/2 {
		n := copy(q.items, live)
		clear(q.items[n:])
		q.items = q.items[:n]
	} else {
		//simlint:allow hotalloc amortized queue growth; steady state reuses storage
		grown := make([]T, len(live), 2*(len(live)+1))
		copy(grown, live)
		q.items = grown
	}
	q.head = 0
}

// Peek returns the head entry without removing it; the queue must be
// non-empty.
func (q *FIFO[T]) Peek() T { return q.items[q.head] }
