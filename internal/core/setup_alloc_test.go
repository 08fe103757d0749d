package core

import (
	"runtime"
	"testing"

	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/units"
)

// setupBytes returns the bytes allocated by the device set-up every
// device-backed system performs: NewDevice, SetPlaneMapper and one Preload
// per page of a GPT-13B colocated window of the given update units.
func setupBytes(t *testing.T, channels int, window int64) units.Bytes {
	t.Helper()
	cfg := DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = window
	cfg.SSD.Channels = channels
	cfg.Layout = layout.Colocated
	lay, err := layout.New(cfg.SSD.Geometry(), cfg.Comps(), cfg.SimUnits(), cfg.Layout)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev := ssd.NewDevice(eng, cfg.SSD)
	dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		dev.Preload(lpa)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dev)
	return units.Bytes(after.TotalAlloc - before.TotalAlloc)
}

// TestDeviceSetupAllocatesPerWindow pins O(window) device set-up: the
// FTL's translation maps grow with the blocks a window touches, so a
// 128-unit window stays small even on a 16-channel device. The former
// chunks, each spanning a pair of planes, allocated 16.75 MiB here.
func TestDeviceSetupAllocatesPerWindow(t *testing.T) {
	const limit = 2 * units.MiB
	for _, ch := range []int{1, 8, 16} {
		got := setupBytes(t, ch, 128)
		t.Logf("%2d channels: %v", ch, got)
		if ch == 16 && got >= limit {
			t.Errorf("16-channel set-up allocated %v, want under %v", got, limit)
		}
	}
}
