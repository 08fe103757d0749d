package invariant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/units"
)

// simulated lists the systems that run the discrete-event pipeline (and
// therefore carry window-level counters).
var simulated = core.SimulatedSystems()

// deviceBacked reports whether a system keeps its state on the simulated
// device; the analytic reference does not.
func deviceBacked(system string) bool {
	d, ok := core.LookupSystem(system)
	return ok && d.Simulated()
}

// scaled extrapolates a window-level byte count to the full step exactly
// the way the systems' report code does, so conservation comparisons are
// bit-identical rather than tolerance-based.
func scaled(window int64, scale float64) int64 {
	return int64(float64(window) * scale)
}

// checkReportSane enforces the structural facts every report must satisfy
// regardless of system: positive step times, utilisations that are
// fractions, write amplification of at least one, non-negative traffic.
func checkReportSane(system string, cfg core.Config, r *core.Report) error {
	if !r.Feasible {
		if deviceBacked(system) {
			return fmt.Errorf("only an analytic system may be infeasible, got infeasible %s", system)
		}
		if r.Notes == "" {
			return fmt.Errorf("infeasible report carries no explanatory note")
		}
		return nil
	}
	if r.OptStepTime <= 0 {
		return fmt.Errorf("OptStepTime %v not positive", r.OptStepTime)
	}
	if r.StepTime < r.FwdBwdTime {
		return fmt.Errorf("StepTime %v below FwdBwdTime %v", r.StepTime, r.FwdBwdTime)
	}
	if r.TokensPerSec <= 0 {
		return fmt.Errorf("TokensPerSec %v not positive", r.TokensPerSec)
	}
	if r.WAF < 1 {
		return fmt.Errorf("WAF %v below 1", r.WAF)
	}
	const utilEps = 1e-9
	for _, u := range []struct {
		name string
		v    float64
	}{{"LinkUtil", r.LinkUtil}, {"BusUtil", r.BusUtil}, {"ODPUtil", r.ODPUtil}, {"GPUUtil", r.GPUUtil}} {
		if u.v < 0 || u.v > 1+utilEps {
			return fmt.Errorf("%s %v outside [0,1]", u.name, u.v)
		}
	}
	for _, b := range []struct {
		name string
		v    int64
	}{
		{"PCIeBytes", r.PCIeBytes}, {"BusBytes", r.BusBytes},
		{"NANDReadBytes", r.NANDReadBytes}, {"NANDProgramBytes", r.NANDProgramBytes},
		{"DRAMBytes", r.DRAMBytes}, {"HBMBytes", r.HBMBytes},
	} {
		if b.v < 0 {
			return fmt.Errorf("%s %d negative", b.name, b.v)
		}
	}
	if r.SimUnits < 1 || r.SimUnits > r.TotalUnits {
		return fmt.Errorf("SimUnits %d outside [1, TotalUnits=%d]", r.SimUnits, r.TotalUnits)
	}
	return nil
}

// checkPCIeConservation audits the simulated window's external-link byte
// counters against the per-unit accounting: every byte a system claims to
// move per unit must have actually crossed the link model, and nothing
// else. The expectations are exact — the systems issue fixed-size
// transfers — so any drift means dropped or double-counted traffic.
func checkPCIeConservation(system string, cfg core.Config, r *core.Report) error {
	if !r.Feasible {
		return nil
	}
	d, ok := core.LookupSystem(system)
	if !ok {
		return nil
	}
	// The analytic reference's window is empty: no external traffic.
	w := d.Window(cfg)
	wantTo, wantFrom := w.PCIeToDev, w.PCIeFromDev
	if r.SimPCIeToDevBytes != wantTo {
		return fmt.Errorf("to-device window bytes %d, accounting expects %d",
			r.SimPCIeToDevBytes, wantTo)
	}
	if r.SimPCIeFromDevBytes != wantFrom {
		return fmt.Errorf("from-device window bytes %d, accounting expects %d",
			r.SimPCIeFromDevBytes, wantFrom)
	}
	return nil
}

// checkBusConservation audits the channel-bus traffic a system reports
// against what its pipeline must move. GC relocations are in-plane
// copyback and host cache hits cannot occur inside the measurement window
// (every page is read before it is rewritten), so the expectations are
// exact for layouts without cross-die hops; layouts that scatter a unit's
// pages add remote transfers on top, making the figure a lower bound.
func checkBusConservation(system string, cfg core.Config, r *core.Report) error {
	d, ok := core.LookupSystem(system)
	if !ok {
		return nil
	}
	scale := cfg.ScaleFactor()
	window := d.Window(cfg).Bus
	exact := d.BusExact(cfg.Layout)
	want := scaled(window, scale)
	if exact && r.BusBytes != want {
		return fmt.Errorf("BusBytes %d, conservation expects exactly %d (window %d × scale %.6g)",
			r.BusBytes, want, window, scale)
	}
	if !exact && r.BusBytes < want {
		return fmt.Errorf("BusBytes %d below conservation floor %d", r.BusBytes, want)
	}
	return nil
}

// checkNANDAccounting verifies the media moved at least the pages the
// update semantics require: every resident page read once per kernel pass
// and programmed once per step. GC relocation adds reads and programs on
// top (hence lower bounds), and the FTL's write amplification must never
// fall below one.
func checkNANDAccounting(system string, cfg core.Config, r *core.Report) error {
	d, ok := core.LookupSystem(system)
	if !ok {
		return nil
	}
	scale := cfg.ScaleFactor()
	w := d.Window(cfg)
	wantReads := scaled(w.NANDRead, scale)
	wantPrograms := scaled(w.NANDProgram, scale)
	if r.NANDReadBytes < wantReads {
		return fmt.Errorf("NANDReadBytes %d below the %d the update semantics require",
			r.NANDReadBytes, wantReads)
	}
	if r.NANDProgramBytes < wantPrograms {
		return fmt.Errorf("NANDProgramBytes %d below the %d the update semantics require",
			r.NANDProgramBytes, wantPrograms)
	}
	return nil
}

// rampSlack is the absolute slack allowed on top of K·floor: the pipeline
// fill/drain transient of the simulated window, extrapolated by the same
// scale factor as the measurement itself. It covers a few pipeline depths
// of per-unit latency (array read + program + bus and link setup), which
// the steady-state floor deliberately excludes.
func rampSlack(cfg core.Config) sim.Time {
	perUnit := float64(cfg.SSD.Nand.ReadLatency+cfg.SSD.Nand.ProgramLatency) * float64(cfg.Comps())
	perUnit += float64(cfg.Link.Latency) + float64(cfg.SSD.CmdLatency)
	const depth = 8.0
	return units.Nanos(perUnit * depth * cfg.ScaleFactor())
}

// checkRooflineSandwich enforces floor ≤ OptStepTime ≤ K·floor + ramp
// under either overlap model: a step below the analytic floor means the
// simulator dropped work; one far above it means an accidental
// serialization. The upper side holds only on a fault-free report: a
// fired fault adds retry and recovery work the floor does not price.
func checkRooflineSandwich(system string, cfg core.Config, r *core.Report) error {
	if !r.Feasible {
		return nil
	}
	d, ok := core.LookupSystem(system)
	if !ok {
		return fmt.Errorf("no roofline model for system %q", system)
	}
	if d.Simulated() && cfg.Layout != layout.Colocated {
		// The floor assumes pages spread evenly over all planes (and, for
		// optimstore, no cross-die page bouncing). The ablation layouts
		// exist precisely to measure the cost of breaking that assumption
		// — their placement loss is real, not a simulator bug.
		return nil
	}
	rf, _ := core.RooflineFor(system, cfg)
	floor := rf.Floor()
	simT := r.OptStepTime
	// Lower bound, with a hair of tolerance for the per-chunk integer
	// rounding the simulation accumulates and the floor does not.
	if float64(simT) < float64(floor)*0.999-1000 {
		return fmt.Errorf("simulated %v below analytic floor %v (binding: %s)",
			simT, floor, rf.Binding())
	}
	if r.PowerLossFaults+r.DieFailFaults+r.ECCFaults > 0 {
		return nil
	}
	k := d.SandwichK()
	upper := floor.Scale(k) + rampSlack(cfg)
	if simT > upper {
		return fmt.Errorf("simulated %v exceeds %.3g× analytic floor %v + ramp slack (limit %v, binding: %s)",
			simT, k, floor, upper, rf.Binding())
	}
	return nil
}

// checkFootprintRounding pins the direction of the gap between the two
// state-footprint accountings: the byte-exact analytic figure (parameters
// × per-parameter resident bytes, including fractional quantization-scale
// overhead) must never exceed the page-rounded figure the simulation
// stores (Comps whole NAND pages per unit). The rounding is intentional —
// a page is the smallest unit the media can read or program — but the gap
// silently inverting would mean the analytic accounting (endurance,
// checkpoint sizing, BoundFor) started overstating the simulated device.
func checkFootprintRounding(_ string, cfg core.Config, _ *core.Report) error {
	analytic := float64(cfg.ElemsPerPage()) * cfg.Spec().ResidentBytes()
	rounded := float64(cfg.ResidentBytesPerUnit())
	if analytic > rounded {
		return fmt.Errorf("analytic per-unit footprint %.2f B exceeds page-rounded %d B (%d pages)",
			analytic, cfg.ResidentBytesPerUnit(), cfg.Comps())
	}
	return nil
}
