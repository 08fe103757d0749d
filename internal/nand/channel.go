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
	name   string // a channel built alone; a device's are named by index
	idx    int
	params *Params
	bus    sim.Resource
	dies   []Die
}

// NewChannels builds a device's NAND array, channels × dies × the
// parameters' planes, in a constant number of allocations: one slice of
// channels, one of dies and one of planes (and one of preemptible servers
// under read-suspend), each channel's dies and each die's planes a window
// of the one below. p must have passed Validate; every die shares it. A
// device's first block arrays come from one chunk its planes carve on
// first touch (see blockChunk).
//
// Only a trace reads names, so they are formatted only when the engine
// traces: the bus of channel c traces on "ch<c>/bus" and a FIFO plane on
// "ch<c>/die<d>/plane<i>".
func NewChannels(eng *sim.Engine, p *Params, channels, diesPer int) []Channel {
	planesPer := p.PlanesPerDie
	chans := make([]Channel, channels)
	dies := make([]Die, channels*diesPer)
	planes := make([]plane, len(dies)*planesPer)
	var pres []sim.Preemptible
	if p.ReadSuspend {
		pres = make([]sim.Preemptible, len(planes))
	}
	first := &blockChunk{planes: len(planes)}
	for c := range chans {
		ch := &chans[c]
		ch.idx, ch.params = c, p
		ch.dies = dies[c*diesPer : (c+1)*diesPer : (c+1)*diesPer]
		ch.initBus(eng)
		for i := range ch.dies {
			k := c*diesPer + i
			d := &ch.dies[i]
			d.ch, d.idx, d.params = c, i, p
			at, end := k*planesPer, (k+1)*planesPer
			d.planes = planes[at:end:end]
			d.first, d.base = first, at
			name := ""
			if eng.Tracer() != nil {
				name = d.Name()
			}
			d.initPlanes(eng, name, pres)
		}
	}
	return chans
}

// initBus builds the channel's bus in place, named "<channel>/bus" when
// the engine traces.
func (c *Channel) initBus(eng *sim.Engine) {
	name := ""
	if eng.Tracer() != nil {
		name = c.Name() + "/bus"
	}
	c.bus.Init(eng, name, 1)
}

// Name returns the diagnostic name: "ch<c>" for a device's channel.
func (c *Channel) Name() string {
	if c.name != "" {
		return c.name
	}
	return fmt.Sprintf("ch%d", c.idx)
}

// Dies returns the dies attached to this channel.
func (c *Channel) Dies() []Die { return c.dies }

// Die returns die i.
func (c *Channel) Die(i int) *Die { return &c.dies[i] }

// BusUtilization returns the mean busy fraction of the channel bus.
func (c *Channel) BusUtilization() float64 { return c.bus.Utilization() }

// TransferIn moves n bytes from the controller to die's page register,
// occupying the bus, then fires done.
func (c *Channel) TransferIn(die int, n int, done sim.Handler) {
	c.dies[die].addBytesIn(n)
	c.bus.Use(c.params.TransferTime(n), done)
}

// TransferOut moves n bytes from die's page register to the controller,
// occupying the bus, then fires done.
func (c *Channel) TransferOut(die int, n int, done sim.Handler) {
	c.dies[die].addBytesOut(n)
	c.bus.Use(c.params.TransferTime(n), done)
}

// Counts sums operation tallies across all dies on the channel.
func (c *Channel) Counts() OpCounts {
	var total OpCounts
	for i := range c.dies {
		total.Add(c.dies[i].Counts())
	}
	return total
}
