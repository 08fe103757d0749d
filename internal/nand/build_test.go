package nand

import (
	"fmt"

	"repro/internal/sim"
)

// NewDie builds a die on its own, as die 0 of channel 0, with its own
// first block arrays. It panics on invalid parameters. A FIFO plane's
// resource is named "<name>/plane<i>" when the engine traces.
func NewDie(eng *sim.Engine, name string, p Params) *Die {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	d := &Die{
		params: &p,
		planes: make([]plane, p.PlanesPerDie),
		first:  &blockChunk{planes: p.PlanesPerDie},
	}
	d.initPlanes(eng, name, make([]sim.Preemptible, p.PlanesPerDie))
	return d
}

// NewChannel builds a channel of nDies identical dies on its own, named
// name; its resources trace as a device's channel 0. It panics on
// invalid parameters.
func NewChannel(eng *sim.Engine, name string, p Params, nDies int) *Channel {
	if nDies <= 0 {
		panic(fmt.Sprintf("nand: channel %q with %d dies", name, nDies))
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	c := &NewChannels(eng, &p, 1, nDies)[0]
	c.name = name
	return c
}
