package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dnn"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/units"
)

// setupWindow returns the configuration and layout of a GPT-13B colocated
// window of the given update units on a device of the given channels.
func setupWindow(t testing.TB, channels int, window int64) (Config, *layout.Layout) {
	t.Helper()
	cfg := DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = window
	cfg.SSD.Channels = channels
	cfg.Layout = layout.Colocated
	lay, err := layout.New(cfg.SSD.Geometry(), cfg.Comps(), cfg.SimUnits(), cfg.Layout)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, lay
}

// setUpDevice performs the device set-up every device-backed system
// performs: NewDevice, SetPlaneMapper and one Preload per page of the
// layout's window.
func setUpDevice(cfg Config, lay *layout.Layout) *ssd.Device {
	dev := ssd.NewDevice(sim.NewEngine(), cfg.SSD)
	dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		dev.Preload(lpa)
	}
	return dev
}

// setupBytes returns the bytes allocated by the device set-up of a GPT-13B
// colocated window of the given update units.
func setupBytes(t *testing.T, channels int, window int64) units.Bytes {
	t.Helper()
	cfg, lay := setupWindow(t, channels, window)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev := setUpDevice(cfg, lay)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dev)
	return units.Bytes(after.TotalAlloc - before.TotalAlloc)
}

// TestDeviceSetupAllocatesPerWindow pins O(window) device set-up: block
// state and the translation maps grow with the blocks and pages a window
// touches, so a 128-unit window stays small even on a 16-channel device.
// It allocates about 199 KiB here; eager per-block arrays and one 2^8-entry
// reverse-map chunk per opened block made that 974 KiB, and the former
// 2^15-entry map chunks, each spanning a pair of planes, 16.75 MiB.
func TestDeviceSetupAllocatesPerWindow(t *testing.T) {
	const limit = 256 * units.KiB
	for _, ch := range []int{1, 8, 16} {
		got := setupBytes(t, ch, 128)
		t.Logf("%2d channels: %v", ch, got)
		if ch == 16 && got >= limit {
			t.Errorf("16-channel set-up allocated %v, want under %v", got, limit)
		}
	}
}

// BenchmarkDeviceBuild times the device set-up of a GPT-13B 128-unit
// colocated window (NewDevice, SetPlaneMapper, Preload) at 1, 8 and 16
// channels, with its bytes and allocations per build.
func BenchmarkDeviceBuild(b *testing.B) {
	for _, ch := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("channels=%d", ch), func(b *testing.B) {
			cfg, lay := setupWindow(b, ch, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runtime.KeepAlive(setUpDevice(cfg, lay))
			}
		})
	}
}
