package invariant

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
)

// Crash-consistency invariants. The per-report "fault-accounting" property
// defined here audits the checkpoint/restore bookkeeping on every run;
// the run-level crash invariants (no live-page loss across power loss,
// mapped ⊆ programmed after replay, recovered content identical to the
// last durable version) need whole crashed/recovered device pairs and run
// from the test suite via fault.EnumerateCrashPoints (see crash_test.go).

// checkFaultAccounting enforces the structural facts of the fault and
// checkpoint fields on every report, faulted or not:
//
//   - the policy string is always set and valid;
//   - checkpoint cost is charged exactly when a policy is configured, and
//     its NAND-program (WAF) cost exactly for the in-place policy on a
//     device-backed system;
//   - recovery cost is charged exactly when terminal faults fired;
//   - a disabled fault spec fires nothing.
func checkFaultAccounting(system string, cfg core.Config, r *core.Report) error {
	switch r.CheckpointPolicy {
	case "none", "inplace", "hostpull":
	default:
		return fmt.Errorf("checkpoint policy %q is not a valid policy string", r.CheckpointPolicy)
	}
	if r.PowerLossFaults < 0 || r.DieFailFaults < 0 || r.ECCFaults < 0 {
		return fmt.Errorf("negative fault counts pl=%d df=%d ecc=%d",
			r.PowerLossFaults, r.DieFailFaults, r.ECCFaults)
	}
	if r.CheckpointTime < 0 || r.RecoveryTime < 0 ||
		r.CheckpointProgramBytes < 0 || r.RecoveryProgramBytes < 0 {
		return fmt.Errorf("negative fault cost: ckpt=%v rec=%v ckptB=%d recB=%d",
			r.CheckpointTime, r.RecoveryTime, r.CheckpointProgramBytes, r.RecoveryProgramBytes)
	}
	if !cfg.Fault.Enabled() && r.PowerLossFaults+r.DieFailFaults+r.ECCFaults != 0 {
		return fmt.Errorf("fault injection disabled but pl=%d df=%d ecc=%d fired",
			r.PowerLossFaults, r.DieFailFaults, r.ECCFaults)
	}
	if !r.Feasible {
		return nil
	}

	if cfg.Checkpoint == fault.CheckpointNone {
		if r.CheckpointTime != 0 || r.CheckpointProgramBytes != 0 {
			return fmt.Errorf("no checkpoint policy but ckpt=%v ckptB=%d",
				r.CheckpointTime, r.CheckpointProgramBytes)
		}
	} else if r.CheckpointTime <= 0 {
		return fmt.Errorf("policy %s priced a free checkpoint", r.CheckpointPolicy)
	}
	// Only the in-place policy snapshots device-side, and only systems
	// with device-resident state pay its NAND programs.
	wantProg := cfg.Checkpoint == fault.CheckpointInPlace && deviceBacked(system)
	if wantProg != (r.CheckpointProgramBytes > 0) {
		return fmt.Errorf("policy %s on %s: checkpoint programs %d NAND bytes",
			r.CheckpointPolicy, system, r.CheckpointProgramBytes)
	}

	terminal := r.PowerLossFaults + r.DieFailFaults
	if terminal == 0 && (r.RecoveryTime != 0 || r.RecoveryProgramBytes != 0) {
		return fmt.Errorf("no terminal faults but recovery=%v recB=%d",
			r.RecoveryTime, r.RecoveryProgramBytes)
	}
	if terminal > 0 && r.RecoveryTime <= 0 {
		return fmt.Errorf("%d terminal faults but free recovery", terminal)
	}
	if !deviceBacked(system) && r.RecoveryProgramBytes != 0 {
		return fmt.Errorf("analytic reference programmed %d NAND bytes recovering", r.RecoveryProgramBytes)
	}
	return nil
}
