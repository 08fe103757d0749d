package ssd

import (
	"testing"

	"repro/internal/sim"
)

// eraseSnapshot captures every block's P/E count.
func eraseSnapshot(f *FTL) []int {
	g := f.geo
	counts := make([]int, 0, g.BlocksTotal())
	for p := 0; p < g.Planes(); p++ {
		for b := 0; b < g.BlocksPerPlane; b++ {
			counts = append(counts, blockErases(f, p, b))
		}
	}
	return counts
}

// TestGCMigratesOnlyLivePages instruments the commit hook to watch every
// GC relocation: each one must move a page that is currently mapped, and
// the relocation count the device reports must match what the hook saw.
func TestGCMigratesOnlyLivePages(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	lpas := d.Config().LogicalPages()

	var hookRelocations uint64
	d.SetCommitHook(func(lpa, oldLin, newLin int64, gc bool) {
		if !gc {
			return
		}
		hookRelocations++
		if oldLin < 0 {
			t.Errorf("GC relocated lpa %d that had no prior mapping", lpa)
		}
		if newLin == oldLin {
			t.Errorf("GC relocated lpa %d onto itself (ppa %d)", lpa, oldLin)
		}
	})

	for lpa := int64(0); lpa < lpas; lpa++ {
		d.Write(lpa, nil)
	}
	runDrained(t, e, d)
	for round := 0; round < 8; round++ {
		for lpa := int64(0); lpa < lpas; lpa += 3 {
			d.Write(lpa, nil)
		}
		runDrained(t, e, d)
	}

	s := d.Stats()
	if s.GCRelocations == 0 {
		t.Fatal("churn produced no relocations; test exercises nothing")
	}
	if hookRelocations != s.GCRelocations {
		t.Fatalf("hook saw %d relocations, device reports %d", hookRelocations, s.GCRelocations)
	}
	if s.GCRelocations != d.FTL().GCProgrammed() {
		t.Fatalf("device relocations %d, FTL GC programs %d", s.GCRelocations, d.FTL().GCProgrammed())
	}
}

// TestGCEraseCountsMonotone snapshots every block's P/E count between
// overwrite rounds: counts must never decrease, their total must equal the
// device's erase tally, and wear must stay level enough that the
// least-erased-first block selection is actually operating.
func TestGCEraseCountsMonotone(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, smallConfig())
	lpas := d.Config().LogicalPages()

	for lpa := int64(0); lpa < lpas; lpa++ {
		d.Write(lpa, nil)
	}
	runDrained(t, e, d)

	prev := eraseSnapshot(d.FTL())
	for round := 0; round < 12; round++ {
		for lpa := int64(0); lpa < lpas; lpa += 2 {
			d.Write(lpa, nil)
		}
		runDrained(t, e, d)
		cur := eraseSnapshot(d.FTL())
		for b := range cur {
			if cur[b] < prev[b] {
				t.Fatalf("round %d: block %d erase count went %d -> %d", round, b, prev[b], cur[b])
			}
		}
		prev = cur
	}

	var total uint64
	for _, c := range prev {
		total += uint64(c)
	}
	if total != d.Stats().GCErases {
		t.Fatalf("per-block erase counts sum to %d, device erased %d blocks", total, d.Stats().GCErases)
	}
	if d.Stats().GCErases == 0 {
		t.Fatal("no erases; churn insufficient")
	}
	g := d.Geometry()
	for p := 0; p < g.Planes(); p++ {
		if min, max := wearSpread(d.FTL(), p); max-min > 3 {
			t.Errorf("plane %d wear spread [%d, %d]: least-erased-first selection not levelling", p, min, max)
		}
	}
}

// TestGCNoLivePageLoss checks the end state of heavy churn, with hot/cold
// stream separation both off and on: every logical page written is still
// mapped, the translation map is internally consistent, and overall write
// amplification reflects the relocations that happened.
func TestGCNoLivePageLoss(t *testing.T) {
	for _, sep := range []bool{false, true} {
		name := "mixed-streams"
		if sep {
			name = "hot-cold-separated"
		}
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.HotColdSeparation = sep
			e := sim.NewEngine()
			d := NewDevice(e, cfg)
			lpas := cfg.LogicalPages()

			for lpa := int64(0); lpa < lpas; lpa++ {
				d.Write(lpa, nil)
			}
			runDrained(t, e, d)
			for round := 0; round < 10; round++ {
				// Rotate the stale stripe so every block eventually mixes
				// valid and stale pages.
				for lpa := int64(round % 5); lpa < lpas; lpa += 5 {
					d.Write(lpa, nil)
				}
				runDrained(t, e, d)
			}

			for lpa := int64(0); lpa < lpas; lpa++ {
				if _, ok := d.FTL().Lookup(lpa); !ok {
					t.Fatalf("live page %d lost after GC churn", lpa)
				}
			}
			s := d.Stats()
			if s.GCErases == 0 || s.GCRelocations == 0 {
				t.Fatalf("churn did not exercise GC (erases=%d relocations=%d)", s.GCErases, s.GCRelocations)
			}
			wantWAF := float64(d.FTL().HostProgrammed()+d.FTL().GCProgrammed()) / float64(d.FTL().HostProgrammed())
			if diff := s.WAF - wantWAF; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("WAF %v, programs imply %v", s.WAF, wantWAF)
			}
		})
	}
}
