package fault

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// CrashCheck verifies one crash point: the workload was cut dead at
// boundary b (the k-th of the run), crashed is the device as the power
// failed, recovered is the rebuilt device, and info is what recovery
// found. Returning an error fails the enumeration with the crash point
// attached.
type CrashCheck func(k int, b ssd.Boundary, crashed, recovered *ssd.Device, info *ssd.RecoveryInfo) error

// EnumerateCrashPoints replays a workload once per FTL op boundary,
// crashing at each: a reference run counts the boundaries, then for every
// k in [1, n] a fresh run is stopped dead at boundary k (sim.Engine.Stop
// — no further events fire, exactly a power cut), the device is rebuilt
// with ssd.Recover on a fresh engine, and check is invoked.
//
// build constructs and preloads a device on the given engine; drive
// issues the workload (it must not Run the engine). Both must be
// deterministic — the enumeration relies on run k reproducing the
// reference run's first k boundaries.
//
//simlint:allow unused the tier-5 crash harness; tests in invariant and fault drive it
func EnumerateCrashPoints(
	build func(eng *sim.Engine) *ssd.Device,
	drive func(dev *ssd.Device),
	check CrashCheck,
) (boundaries int, err error) {
	// Reference run: count boundaries end to end.
	refEng := sim.NewEngine()
	refDev := build(refEng)
	total := 0
	refDev.SetBoundaryHook(func(ssd.Boundary) { total++ })
	drive(refDev)
	refEng.Run()

	for k := 1; k <= total; k++ {
		eng := sim.NewEngine()
		dev := build(eng)
		var at ssd.Boundary
		dev.SetBoundaryHook(func(b ssd.Boundary) {
			if int(b.Seq) == k {
				at = b
				eng.Stop()
			}
		})
		drive(dev)
		eng.Run()
		if int(at.Seq) != k {
			return total, fmt.Errorf("crash run %d/%d: boundary never reached (run diverged from reference)", k, total)
		}
		recovered, info, rerr := ssd.Recover(sim.NewEngine(), dev)
		if rerr != nil {
			return total, fmt.Errorf("crash at boundary %d/%d (%v): %w", k, total, at.Kind, rerr)
		}
		if cerr := check(k, at, dev, recovered, info); cerr != nil {
			return total, fmt.Errorf("crash at boundary %d/%d (%v): %w", k, total, at.Kind, cerr)
		}
	}
	return total, nil
}
