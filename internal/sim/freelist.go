package sim

import "sync"

// freelistSlab is how many records a Freelist carves from one allocation.
// A burst of records taken together (a window's units admitted at once,
// the requests and events they post) then costs one allocation per 16
// records rather than one per record. Past that, the size matters only
// while an owner's pools first grow: Reset keeps every slab, the unused
// tail of the last one included, so an owner taken from its shelf (see
// Shelf) carves nothing until a run needs more records at once than any
// run it served before. On the wallbench steady and mixed workloads,
// slabs of 64 allocate 0.1% more bytes per op than slabs of 16.
const freelistSlab = 16

// Freelist recycles records of type T. Get takes a record Put returned,
// else the next unused record of the current slab, else a record of a new
// slab; Put returns a record for a later Get. Records are never freed on
// their own: a slab lives as long as its owner, an engine, a device or a
// rig, whether that owner runs or waits on its shelf (see Shelf). The
// zero value is an empty list.
//
// A record comes back from Get as Put left it, or zeroed if it is new,
// so an owner clears the fields it must not leak before its Put and sets
// the record's back-pointers on every Get. Callers wrap Put in a
// //simlint:release function; Put carries the directive itself, so
// poolsafe flags a handle used after either.
//
// Reset zeroes every record the list has carved and frees them all: the
// Gets that follow return, from the slabs the list already holds, zeroed
// records in the order a new list would carve them.
type Freelist[T any] struct {
	free []*T
	cur  *slab[T] // the slab carved last, linked to the ones before it
	left int      // records of cur not yet handed out: recs[:left]
}

// slab is one allocation of records, handed out from the last down.
type slab[T any] struct {
	recs [freelistSlab]T
	prev *slab[T] // the slab carved before this one
}

// Get returns a free record, carving a new slab when none is free.
//
//simlint:hotpath
func (l *Freelist[T]) Get() *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free = l.free[:n]
		return x
	}
	if l.left == 0 {
		//simlint:allow hotalloc pool growth: one slab per freelistSlab records the owner has never held at once
		l.cur = &slab[T]{prev: l.cur}
		l.left = freelistSlab
	}
	l.left--
	return &l.cur.recs[l.left]
}

// Put returns x to the list. The handle is dead afterwards.
//
//simlint:hotpath
//simlint:release
func (l *Freelist[T]) Put(x *T) {
	//simlint:allow hotalloc amortized freelist growth; steady state reuses storage
	l.free = append(l.free, x)
}

// Reset zeroes every record the list has carved, whether free, in use or
// not yet handed out, and frees them all, stacked so that Get pops them
// in carve order. Every handle the list has returned is dead afterwards.
func (l *Freelist[T]) Reset() {
	l.free, l.left = l.free[:0], 0
	for s := l.cur; s != nil; s = s.prev {
		clear(s.recs[:])
		for i := range s.recs {
			l.free = append(l.free, &s.recs[i])
		}
	}
}

// Shelf holds finished owners (engines, devices, rigs) for the next
// constructor to take, so a design point reuses the record storage of
// one that ran before it rather than growing its own. Give puts back an
// owner already reset to its zero state apart from the storage its
// freelists and slices hold; Take returns the owner given back last, or
// nil. A shelf is safe for concurrent use, and never holds more owners
// than have run at once.
//
// A shelf is the one store simulations share, and it cannot couple
// them: an owner taken from it equals a new one bit for bit, except for
// where its slabs sit in memory, so no run can observe which run, if
// any, held it before.
type Shelf[T any] struct {
	mu sync.Mutex
	xs []*T
}

// Take pops the owner given back last, or returns nil when the shelf is
// empty.
func (s *Shelf[T]) Take() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.xs) - 1
	if n < 0 {
		return nil
	}
	x := s.xs[n]
	s.xs[n] = nil
	s.xs = s.xs[:n]
	return x
}

// Give puts x on the shelf. The caller's handle is dead afterwards.
func (s *Shelf[T]) Give(x *T) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}
