package fault

import (
	"repro/internal/sim"
	"repro/internal/ssd"
)

// eccBurst is how many consecutive uncorrectable reads one ECCExhaust
// event forces through the patrol scrub — enough to push a block through
// probation toward its retry budget without single-handedly retiring it
// under the default policy.
const eccBurst = 4

// Record is one fired fault together with the blast radius observed at
// firing time.
type Record struct {
	Event
	FiredAt sim.Time

	// PowerLoss: cache-resident dirty pages lost with DRAM.
	DirtyPages int

	// DieFailure: the victim die and the mapped pages lost with it.
	Channel, Die int
	LostPages    int64

	// ECCExhaust: the scrubbed page, or -1 when nothing was mapped.
	LPA int64
}

// Injector arms a Plan against a device as first-class simulation events.
//
// The terminal kinds (PowerLoss, DieFailure) are observational in a
// system run: the injector records the state a crash at that instant
// would destroy, and the run continues — recovery cost is accounted
// analytically afterwards (Costs), keeping a fault storm's performance
// reports comparable run-to-run. Genuine crash simulation (stop, rebuild,
// replay) is the crash harness's job (EnumerateCrashPoints).
//
// ECCExhaust is live: it injects uncorrectable reads and issues a patrol
// scrub, so the latency, plane occupancy, and any block retirement land
// organically in the simulated run.
type Injector struct {
	eng    *sim.Engine
	dev    *ssd.Device
	events []*sim.Event
	fired  []Record
}

// Arm schedules every event of the plan. Call once, after the device is
// built (and preloaded) but before the engine runs. A fault drops its
// handle as it fires: the engine recycles a fired event's struct for a
// later schedule, so a kept handle could make Disarm cancel that one.
func (in *Injector) Arm(eng *sim.Engine, dev *ssd.Device, plan Plan) {
	in.eng, in.dev = eng, dev
	for _, ev := range plan {
		ev, slot := ev, len(in.events)
		in.events = append(in.events, eng.At(ev.At, func() {
			in.events[slot] = nil
			in.fire(ev)
		}))
	}
}

// Disarm cancels every not-yet-fired event. Call it the moment the
// workload completes (inside the drain callback): cancelled events never
// fire and never advance the clock, so a faulted run whose remaining
// faults all land after completion is byte-identical to a fault-free run.
func (in *Injector) Disarm() {
	for _, e := range in.events {
		in.eng.Cancel(e)
	}
	in.events = nil
}

// Fired returns the records of every fault that fired, in firing order.
func (in *Injector) Fired() []Record { return in.fired }

func (in *Injector) fire(ev Event) {
	rec := Record{Event: ev, FiredAt: in.eng.Now(), LPA: -1}
	switch ev.Kind {
	case PowerLoss:
		rec.DirtyPages = in.dev.DirtyPages()
	case DieFailure:
		geo := in.dev.Geometry()
		die := int(ev.Pick % int64(geo.Channels*geo.DiesPerChannel))
		rec.Channel, rec.Die = die/geo.DiesPerChannel, die%geo.DiesPerChannel
		rec.LostPages = in.dev.MappedPagesOnDie(rec.Channel, rec.Die)
	case ECCExhaust:
		if lpa, ok := in.dev.NthMappedLPA(ev.Pick); ok {
			rec.LPA = lpa
			in.dev.InjectReadErrors(lpa, eccBurst)
			in.dev.ScrubRead(lpa, nil)
		}
	}
	in.fired = append(in.fired, rec)
}
