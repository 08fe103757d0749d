// Package fault is the deterministic, seed-driven fault-injection layer:
// it generates schedules of power-loss, die-failure, and ECC-exhaustion
// events (Schedule), arms them as first-class simulation events against a
// device (Injector), enumerates crash points at every FTL op boundary
// (EnumerateCrashPoints), and prices the checkpoint/restore policies the
// faults make necessary (Costs).
//
// Event taxonomy and semantics:
//
//   - PowerLoss: DRAM contents (write cache, in-flight state) vanish; the
//     NAND array and the committed mapping survive. The injector records
//     the blast radius (dirty pages, simulation time); recovery replays
//     the durable map (ssd.Recover) and restores optimizer state from the
//     last checkpoint.
//   - DieFailure: one die goes offline with everything on it. Mapped pages
//     on the die are lost and must be restored from a checkpoint
//     (ssd.RecoverAfterDieFailure retires its blocks).
//   - ECCExhaust: a read of one page comes back uncorrectable repeatedly,
//     burning read-retry budget. Unlike the terminal kinds this is a live,
//     run-surviving fault: the injector forces a burst of uncorrectable
//     reads through a patrol scrub, and the device absorbs the latency and
//     (past the retry budget) retires the block.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/units"
)

// Kind classifies a fault event.
type Kind uint8

// Fault kinds.
const (
	PowerLoss Kind = iota
	DieFailure
	ECCExhaust
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case PowerLoss:
		return "power-loss"
	case DieFailure:
		return "die-failure"
	case ECCExhaust:
		return "ecc-exhaust"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scheduled fault. Pick is a deterministic victim selector
// drawn with the event: the injector reduces it modulo the population at
// firing time (dies for DieFailure, mapped pages for ECCExhaust), so the
// schedule is independent of device state while the victim is not.
type Event struct {
	Kind Kind
	At   sim.Time
	Pick int64
}

// Plan is a fault schedule, sorted by time.
type Plan []Event

// Policy selects how optimizer state is checkpointed for recovery.
type Policy uint8

// Checkpoint policies (ROADMAP item 5).
const (
	// CheckpointNone keeps no device-side checkpoint: recovery re-streams
	// optimizer state from the host's master copy.
	CheckpointNone Policy = iota
	// CheckpointInPlace snapshots optimizer state die-internally (ODP
	// copyback into reserved blocks): cheap to take and to restore, but
	// a die failure takes the die's checkpoint shard down with it.
	CheckpointInPlace
	// CheckpointHostPull streams optimizer state out over the host link:
	// expensive to take, but recovery survives any single-device loss.
	CheckpointHostPull
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case CheckpointNone:
		return "none"
	case CheckpointInPlace:
		return "inplace"
	case CheckpointHostPull:
		return "hostpull"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy parses a -checkpoint flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return CheckpointNone, nil
	case "inplace", "in-place", "odp":
		return CheckpointInPlace, nil
	case "hostpull", "host-pull", "host":
		return CheckpointHostPull, nil
	}
	return CheckpointNone, fmt.Errorf("fault: unknown checkpoint policy %q (none|inplace|hostpull)", s)
}

// Spec is the scalar, flag- and config-friendly description of a fault
// storm: a seed plus per-kind Poisson rates over a time window. The zero
// value disables injection entirely.
type Spec struct {
	Seed            int64
	PowerLossPerSec float64
	DieFailPerSec   float64
	ECCPerSec       float64
	StartMs         float64 // window start, milliseconds of sim time
	HorizonMs       float64 // window end (exclusive)
}

// Enabled reports whether the spec schedules anything.
func (s Spec) Enabled() bool {
	return (s.PowerLossPerSec > 0 || s.DieFailPerSec > 0 || s.ECCPerSec > 0) &&
		s.HorizonMs > s.StartMs
}

// Validate reports the first structural problem. A NaN or infinite rate
// or window bound is one: NaN fails every comparison, so Enabled would
// read false while Plan still schedules events, and an infinite rate
// fires an event every nanosecond.
func (s Spec) Validate() error {
	for _, v := range []float64{s.PowerLossPerSec, s.DieFailPerSec, s.ECCPerSec, s.StartMs, s.HorizonMs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: non-finite rate or window in %+v", s)
		}
	}
	if s.PowerLossPerSec < 0 || s.DieFailPerSec < 0 || s.ECCPerSec < 0 {
		return fmt.Errorf("fault: negative rate in %+v", s)
	}
	if s.StartMs < 0 || s.HorizonMs < 0 {
		return fmt.Errorf("fault: negative window in %+v", s)
	}
	if (s.PowerLossPerSec > 0 || s.DieFailPerSec > 0 || s.ECCPerSec > 0) && s.HorizonMs <= s.StartMs {
		return fmt.Errorf("fault: positive rates but empty window [%vms, %vms)", s.StartMs, s.HorizonMs)
	}
	return nil
}

// Rates converts the spec's scalar window to simulation units.
func (s Spec) Rates() Rates {
	return Rates{
		PowerLossPerSec: s.PowerLossPerSec,
		DieFailPerSec:   s.DieFailPerSec,
		ECCPerSec:       s.ECCPerSec,
		Start:           units.Millis(s.StartMs),
		Horizon:         units.Millis(s.HorizonMs),
	}
}

// Plan generates the spec's fault schedule.
func (s Spec) Plan() Plan { return Schedule(s.Seed, s.Rates()) }

// ParseSpec parses a -fault flag value of the form
//
//	seed=1,pl=2,df=1,ecc=50,start=0,horizon=100
//
// where pl/df/ecc are events per second of simulated time and
// start/horizon bound the window in milliseconds. Omitted keys default to
// zero; an empty string is the disabled spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: spec field %q is not key=value", kv)
		}
		k = strings.ToLower(k)
		if k == "seed" {
			// An integer, exactly: a float parse would truncate 1.5 and
			// round seeds past 2^53.
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: spec field %q: %v", kv, err)
			}
			spec.Seed = seed
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: spec field %q: %v", kv, err)
		}
		switch k {
		case "pl", "powerloss":
			spec.PowerLossPerSec = f
		case "df", "diefail":
			spec.DieFailPerSec = f
		case "ecc":
			spec.ECCPerSec = f
		case "start":
			spec.StartMs = f
		case "horizon":
			spec.HorizonMs = f
		default:
			return Spec{}, fmt.Errorf("fault: unknown spec key %q", k)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
