package nand

import (
	"fmt"

	"repro/internal/sim"
)

// Channel models one flash channel: an ONFI/Toggle bus shared by several
// dies. Array operations (Read/Program/Erase) run inside dies in parallel;
// every byte entering or leaving any die on the channel serializes on the
// bus. This contention is the central bandwidth asymmetry that in-storage
// processing exploits.
type Channel struct {
	eng    *sim.Engine
	name   string
	params Params
	bus    *sim.Resource
	dies   []*Die
}

// NewChannel creates a channel with nDies identical dies.
func NewChannel(eng *sim.Engine, name string, p Params, nDies int) *Channel {
	if nDies <= 0 {
		panic(fmt.Sprintf("nand: channel %q with %d dies", name, nDies))
	}
	c := &Channel{
		eng:    eng,
		name:   name,
		params: p,
		bus:    sim.NewResource(eng, name+"/bus", 1),
	}
	for i := 0; i < nDies; i++ {
		c.dies = append(c.dies, NewDie(eng, fmt.Sprintf("%s/die%d", name, i), p))
	}
	return c
}

// Name returns the diagnostic name.
func (c *Channel) Name() string { return c.name }

// Dies returns the dies attached to this channel.
func (c *Channel) Dies() []*Die { return c.dies }

// Die returns die i.
func (c *Channel) Die(i int) *Die { return c.dies[i] }

// BusUtilization returns the mean busy fraction of the channel bus.
func (c *Channel) BusUtilization() float64 { return c.bus.Utilization() }

// TransferIn moves n bytes from the controller to die's page register,
// occupying the bus, then calls done.
func (c *Channel) TransferIn(die int, n int, done func()) {
	c.dies[die].addBytesIn(n)
	c.bus.Use(c.params.TransferTime(n), done)
}

// TransferOut moves n bytes from die's page register to the controller,
// occupying the bus, then calls done.
func (c *Channel) TransferOut(die int, n int, done func()) {
	c.dies[die].addBytesOut(n)
	c.bus.Use(c.params.TransferTime(n), done)
}

// Counts sums operation tallies across all dies on the channel.
func (c *Channel) Counts() OpCounts {
	var total OpCounts
	for _, d := range c.dies {
		total.Add(d.Counts())
	}
	return total
}
