package ssd

import "fmt"

// Garbage collection. Each plane collects independently: when its free-
// block count reaches the low watermark, the device greedily picks the
// full block with the fewest valid pages, relocates those pages within the
// plane via copyback (array read + array program, no channel-bus traffic),
// erases the victim, and repeats until the high watermark is restored.
//
// Relocation competes with host and update traffic for plane time, which
// is exactly the interference the F11 experiment measures.

func (d *Device) maybeGC(plane int) {
	if d.gcActive[plane] {
		return
	}
	if d.ftl.FreeBlocks(plane) > d.cfg.GCLowWater && d.pending[plane].head == nil {
		return
	}
	d.gcActive[plane] = true
	d.opStart()
	d.gcStep(d.getReloc(plane, false))
}

// gcStep picks the next victim of r's plane and relocates it; erasing it
// (relocErase) comes back here.
func (d *Device) gcStep(r *reloc) {
	plane := r.plane
	// Collect until the high watermark is restored AND no writer is starved
	// for space.
	if d.ftl.FreeBlocks(plane) >= d.cfg.GCHighWater && d.pending[plane].head == nil {
		d.gcFinish(r)
		return
	}
	victim, ok := d.ftl.PickVictim(plane)
	if !ok {
		// Nothing reclaimable right now. With programs still in flight on
		// the plane that is transient — each completion commits a mapping
		// and re-triggers maybeGC, so progress resumes. With none, pending
		// writers can never be satisfied: a genuine wedge, recorded and
		// ending the run undrained.
		if d.pending[plane].head != nil && d.ftl.FreeBlocks(plane) == 0 &&
			d.ftl.InflightPrograms(plane) == 0 {
			d.wedge(plane)
			return
		}
		d.gcFinish(r)
		return
	}
	d.relocateBlock(r, victim)
}

// wedge records the first wedged plane and stops the engine; the pending
// writers and the plane's GC op stay outstanding, so the device never
// drains.
func (d *Device) wedge(plane int) {
	if d.wedged == nil {
		//simlint:allow hotalloc cold path; formatting happens once, on a wedged device
		d.wedged = fmt.Errorf("ssd: plane %d wedged: writers pending but nothing reclaimable (logical load exceeds physical capacity)", plane)
	}
	d.eng.Stop()
}

func (d *Device) gcFinish(r *reloc) {
	plane := r.plane
	d.putReloc(r)
	d.gcActive[plane] = false
	d.drainPending(plane)
	d.opDone()
	// Writers still queued here are waiting for in-flight programs to fill
	// blocks; each program completion calls maybeGC again, so progress
	// resumes without a synchronous restart (which could spin).
}
