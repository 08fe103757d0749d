package ssd

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config describes one SSD instance.
type Config struct {
	// Channels and DiesPerChannel set the NAND topology.
	Channels       int
	DiesPerChannel int
	// Nand carries the per-die geometry and timing.
	Nand nand.Params

	// OverProvision is the fraction of physical pages reserved for the
	// FTL (not exposed as logical capacity). Consumer drives run ~7%,
	// enterprise 25%+.
	OverProvision float64

	// GCLowWater triggers garbage collection when a plane's free-block
	// count drops to it; GCHighWater stops collection.
	GCLowWater  int
	GCHighWater int

	// HotColdSeparation directs GC relocations into their own open block
	// per plane instead of mixing long-lived relocated pages with fresh
	// host writes — the standard stream-separation WAF optimisation.
	HotColdSeparation bool

	// CachePages is the DRAM write-cache capacity in pages; writes beyond
	// it backpressure the host. DRAMPageLatency is the DRAM staging time
	// per page.
	CachePages      int
	DRAMPageLatency sim.Time

	// CmdLatency is the NVMe command handling overhead (submission,
	// doorbell, completion) added to every host command.
	CmdLatency sim.Time

	// Retire configures ECC-exhaustion block retirement (see
	// ecc.RetirePolicy). The zero value disables it, keeping the read
	// completion path a single nil check.
	Retire ecc.RetirePolicy
}

// DefaultConfig returns the baseline SSD of the reproduction: 8 channels ×
// 4 TLC dies (× 4 planes) — 128-plane internal parallelism.
//
// BlocksPerPlane is reduced from the physical 1024 to 64: the simulated
// device is a 32 GiB *window* of the real 512 GiB drive. Device state grows
// with the blocks a run touches, so the window saves no memory; it stays
// because GC watermarks and over-provisioning act on a plane's free-block
// count, and every simulated result is calibrated on this window.
// Steady-state throughput depends on planes and timing, not block count;
// capacity- and lifetime-dependent metrics are computed analytically with
// the full geometry (see nand.WearModel.LifetimeSteps).
func DefaultConfig() Config {
	n := nand.ParamsFor(nand.TLC)
	n.BlocksPerPlane = 64
	return Config{
		Channels:          8,
		DiesPerChannel:    4,
		Nand:              n,
		OverProvision:     0.125,
		GCLowWater:        2,
		GCHighWater:       4,
		HotColdSeparation: true,
		CachePages:        512, // 8 MiB of 16 KiB pages
		DRAMPageLatency:   2 * sim.Microsecond,
		CmdLatency:        5 * sim.Microsecond,
	}
}

// Validate reports the first structural problem.
func (c *Config) Validate() error {
	if c.Channels <= 0 || c.DiesPerChannel <= 0 {
		return fmt.Errorf("ssd: topology %dx%d", c.Channels, c.DiesPerChannel)
	}
	if err := c.Nand.Validate(); err != nil {
		return err
	}
	if c.OverProvision < 0 || c.OverProvision >= 1 {
		return fmt.Errorf("ssd: over-provision %v", c.OverProvision)
	}
	if c.GCLowWater < 1 || c.GCHighWater <= c.GCLowWater {
		return fmt.Errorf("ssd: GC watermarks low=%d high=%d", c.GCLowWater, c.GCHighWater)
	}
	if c.GCHighWater >= c.Nand.BlocksPerPlane {
		return fmt.Errorf("ssd: GC high water %d >= blocks per plane %d",
			c.GCHighWater, c.Nand.BlocksPerPlane)
	}
	if c.CachePages <= 0 {
		return fmt.Errorf("ssd: CachePages %d", c.CachePages)
	}
	if c.DRAMPageLatency < 0 || c.CmdLatency < 0 {
		return fmt.Errorf("ssd: negative latency")
	}
	if err := c.Retire.Validate(); err != nil {
		return err
	}
	return nil
}

// Geometry derives the device geometry.
func (c Config) Geometry() Geometry {
	return GeometryOf(c.Channels, c.DiesPerChannel, c.Nand)
}

// LogicalPages is the exposed logical capacity in pages after
// over-provisioning.
func (c Config) LogicalPages() int64 {
	return int64(float64(c.Geometry().TotalPages()) * (1 - c.OverProvision))
}

// InternalReadMBps is the aggregate plane-level sense bandwidth — the
// ceiling for in-storage read traffic. (bytes/µs ≡ MB/s.)
func (c Config) InternalReadMBps() units.MBps {
	perPlane := units.RateMBps(units.Bytes(c.Nand.PageSize), c.Nand.ReadLatency)
	return perPlane.Scale(float64(c.Geometry().Planes()))
}

// InternalProgramMBps is the aggregate plane-level program bandwidth — the
// ceiling for any design that persists updated state, in-storage or not.
func (c Config) InternalProgramMBps() units.MBps {
	perPlane := units.RateMBps(units.Bytes(c.Nand.PageSize), c.Nand.ProgramLatency)
	return perPlane.Scale(float64(c.Geometry().Planes()))
}

// ChannelMBps is the aggregate channel-bus bandwidth.
func (c Config) ChannelMBps() units.MBps {
	return units.MBps(c.Nand.BusMBps * c.Channels)
}
