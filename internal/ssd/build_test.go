package ssd

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// deviceBuildCost returns the heap objects and bytes one NewDevice of cfg
// allocates, averaged over runs builds.
func deviceBuildCost(cfg Config, runs int) (objects, bytes float64) {
	eng := sim.NewEngine()
	build := func() { runtime.KeepAlive(NewDevice(eng, cfg)) }
	objects = testing.AllocsPerRun(runs, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestNewDeviceCostIndependentOfBlocks pins a device build that scales
// with planes, not blocks: per-block state (NAND write pointers and P/E
// counts, the FTL's block records, reverse map and free lists) and the
// logical map grow with the blocks a run touches, so a default device
// with 1024 blocks per plane builds with the allocations of one with 64,
// and with its bytes to within 1%, above the few bytes per build that
// the runtime's own allocations add to MemStats. Eager per-block arrays
// made the 1024-block build 16 times the 64-block one's block state.
func TestNewDeviceCostIndependentOfBlocks(t *testing.T) {
	var objects, bytes [2]float64
	for i, blocks := range []int{64, 1024} {
		cfg := DefaultConfig()
		cfg.Nand.BlocksPerPlane = blocks
		objects[i], bytes[i] = deviceBuildCost(cfg, 100)
		t.Logf("%4d blocks per plane: %.0f objects, %.0f bytes", blocks, objects[i], bytes[i])
	}
	if int64(objects[1]) != int64(objects[0]) || bytes[1] > 1.01*bytes[0] {
		t.Errorf("NewDevice at 1024 blocks per plane allocates %.0f objects and %.0f bytes, at 64 %.0f and %.0f",
			objects[1], bytes[1], objects[0], bytes[0])
	}
}
