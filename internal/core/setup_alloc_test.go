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
// window of the given update units on a device of the given channels,
// dies per channel and planes per die.
func setupWindow(t testing.TB, channels, dies, planes int, window int64) (Config, *layout.Layout) {
	t.Helper()
	cfg := DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = window
	cfg.SSD.Channels = channels
	cfg.SSD.DiesPerChannel = dies
	cfg.SSD.Nand.PlanesPerDie = planes
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
// colocated window of the given update units on the default dies and
// planes.
func setupBytes(t *testing.T, channels int, window int64) units.Bytes {
	t.Helper()
	def := DefaultConfig(dnn.GPT13B()).SSD
	cfg, lay := setupWindow(t, channels, def.DiesPerChannel, def.Nand.PlanesPerDie, window)
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
// It allocates about 182 KiB here; eager per-block arrays and one 2^8-entry
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

// TestDeviceBuildAllocsConstant pins a device set-up whose heap objects
// do not depend on the geometry: channels, dies and planes live in one
// slice each, their resources in place and unnamed, and the first block
// state of every plane in chunks the device allocates once. Read-suspend
// planes hold their preemptible servers in one more slice. The window,
// 16 units of 3 pages, puts at most 12 pages on a plane even on the
// smallest device, 1×2×2; a plane past 16 pages grows its first block's
// reverse map to the whole block, which grows with the window's pages per
// plane, not with the build. Each set-up releases its device and engine,
// so every measured build takes the pair the one before it gave back,
// whatever the shelves held when the test began.
func TestDeviceBuildAllocsConstant(t *testing.T) {
	const window = 16
	for _, suspend := range []bool{false, true} {
		first := -1
		for _, ch := range []int{1, 8, 16} {
			for _, dies := range []int{2, 4, 8} {
				for _, planes := range []int{2, 4} {
					cfg, lay := setupWindow(t, ch, dies, planes, window)
					cfg.SSD.Nand.ReadSuspend = suspend
					got := int(testing.AllocsPerRun(10, func() {
						dev := setUpDevice(cfg, lay)
						eng := dev.Engine()
						dev.Release()
						eng.Release()
					}))
					if first < 0 {
						first = got
						t.Logf("read-suspend %v: %d allocations per set-up", suspend, got)
					}
					if got != first {
						t.Errorf("read-suspend %v, %d×%d×%d set-up: %d allocations, want %d as at 1×2×2",
							suspend, ch, dies, planes, got, first)
					}
				}
			}
		}
	}
}

// BenchmarkDeviceBuild times the device set-up of a GPT-13B 128-unit
// colocated window (NewDevice, SetPlaneMapper, Preload) at 1, 8 and 16
// channels of the default dies and planes, and on the tuner's largest
// grid corner, 16 channels of 8 dies of 4 planes, with its bytes and
// allocations per build.
func BenchmarkDeviceBuild(b *testing.B) {
	def := DefaultConfig(dnn.GPT13B()).SSD
	for _, g := range []struct{ ch, dies, planes int }{
		{1, def.DiesPerChannel, def.Nand.PlanesPerDie},
		{8, def.DiesPerChannel, def.Nand.PlanesPerDie},
		{16, def.DiesPerChannel, def.Nand.PlanesPerDie},
		{16, 8, 4},
	} {
		b.Run(fmt.Sprintf("geometry=%dx%dx%d", g.ch, g.dies, g.planes), func(b *testing.B) {
			cfg, lay := setupWindow(b, g.ch, g.dies, g.planes, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runtime.KeepAlive(setUpDevice(cfg, lay))
			}
		})
	}
}
