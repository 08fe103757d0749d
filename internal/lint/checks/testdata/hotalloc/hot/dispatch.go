package hot

// Handler is a one-method continuation, shaped like sim.Handler: a hot
// root that calls Fire through it reaches every module method named Fire
// with no parameters.
type Handler interface{ Fire() }

// Func adapts a closure to Handler, as sim.Func does. Its Fire is
// reached through the interface, but the call inside it goes through a
// func value, which is a sink: the closure's body is not followed.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// record is a pooled record that is its own handler.
type record struct{ buf []int }

// Fire is reached from Dispatch only through the interface, so its
// allocation is hot.
func (r *record) Fire() {
	r.buf = make([]int, 4) // want `make allocates \(hot chain: Dispatch → \(\*record\)\.Fire\)`
}

// Dispatch is a hot root that calls through an interface and through a
// func value.
//
//simlint:hotpath
func Dispatch(h Handler, f func()) {
	h.Fire()
	f()
}

// viaValue allocates, but no hot root calls it by name: a Func or func
// value wrapping it is a sink.
func viaValue() []int { return make([]int, 8) }

// Wrapped is not hot; it hands viaValue to Dispatch as a func value, as a
// model hands a closure to the engine.
func Wrapped() {
	Dispatch(Func(func() { _ = viaValue() }), func() { _ = viaValue() })
}
