package sim

// freelistSlab is how many records a Freelist carves from one allocation.
// A burst of records taken together (a window's units admitted at once,
// the requests and events they post) then costs one allocation per 16
// records rather than one per record. A slab is not larger because an
// owner's pool stops at its peak of records in flight, wherever that
// falls in its last slab, and the rest of the slab is never used. On the
// small windows of the wallbench mixed points, engines, devices and rigs
// built this way allocate 2.1% more bytes per point than with one
// allocation per record when slabs hold 64 records, and 3.7% fewer when
// they hold 16.
const freelistSlab = 16

// Freelist recycles records of type T. Get takes a record Put returned,
// else the next unused record of the current slab, else a record of a new
// slab; Put returns a record for a later Get. Records are never freed on
// their own: a slab lives as long as its owner, which is always an
// engine, a device or a rig, never the package. The zero value is an
// empty list.
//
// A record comes back from Get as Put left it, or zeroed if it is new,
// so an owner clears the fields it must not leak before its Put and sets
// the record's back-pointers on every Get. Callers wrap Put in a //simlint:release function; Put carries
// the directive itself, so poolsafe flags a handle used after either.
type Freelist[T any] struct {
	free []*T
	slab []T // unused records of the current slab
}

// Get returns a free record, carving a new one when none is free.
//
//simlint:hotpath
func (l *Freelist[T]) Get() *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free = l.free[:n]
		return x
	}
	if len(l.slab) == 0 {
		//simlint:allow hotalloc pool growth: one slab per freelistSlab records while the pool warms up
		l.slab = make([]T, freelistSlab)
	}
	x := &l.slab[0]
	l.slab = l.slab[1:]
	return x
}

// Put returns x to the list. The handle is dead afterwards.
//
//simlint:hotpath
//simlint:release
func (l *Freelist[T]) Put(x *T) {
	//simlint:allow hotalloc amortized freelist growth; steady state reuses storage
	l.free = append(l.free, x)
}
