package odp

import "repro/internal/sim"

// NewUnit builds one unit on its own, tracing on "<name>/odp". Invalid
// parameters panic.
func NewUnit(eng *sim.Engine, name string, p Params) *Unit {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	u := &Unit{params: p}
	u.busy.Init(eng, name+"/odp", 1)
	return u
}
