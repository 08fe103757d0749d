// Package units is the single home for byte-size, bandwidth, clock and
// energy conversions in the reproduction. Every scale factor the
// performance model needs (1000, 1024, 1e6, 1e9, 1e-12, …) lives here,
// behind a named type or a named constant, so the rest of the tree never
// multiplies a measurement by a bare literal — the `unitconv` analyzer in
// internal/lint/checks enforces that at `make tier3` time.
//
// Conventions, chosen to match the paper and the storage industry:
//
//   - Capacities are binary: a page is 16 KiB = 16384 bytes, device
//     geometry multiplies out in powers of two (KiB, MiB, GiB, TiB).
//   - Bandwidths are decimal: MB/s is 1e6 bytes per second, GB/s is 1e9
//     bytes per second (ONFI channel ratings, PCIe lane rates and NVMe
//     spec sheets all quote decimal units). MBps→GBps is therefore a
//     division by 1000, never by 1024.
//   - Simulated time is sim.Time nanoseconds; because GB/s ≡ bytes/ns,
//     transfer-time math is bytes ÷ GBps with no scale factor, and that
//     identity is wrapped once here instead of re-derived at call sites.
//
// The arithmetic inside each helper deliberately mirrors the expressions
// it replaced (same operations in the same order), so adopting the typed
// layer is bit-for-bit neutral on simulator output.
package units

import (
	"fmt"

	"repro/internal/sim"
)

// Bytes is an exact byte count: a capacity, a footprint or a transfer size.
type Bytes int64

// Binary capacity units (powers of two), for geometry and footprints.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

// Decimal size units (powers of ten), for traffic volumes in reports —
// matching the decimal bandwidth units they are divided by.
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// Named scale constants for call sites where a full type would obscure
// rather than clarify (e.g. integer cycle math). Prefer the typed
// helpers; reach for these only when preserving exact integer or
// floating-point expression shape matters.
const (
	NsPerSec   = 1e9 // nanoseconds per second
	NsPerMs    = 1e6 // nanoseconds per millisecond
	NsPerUs    = 1e3 // nanoseconds per microsecond
	HzPerMHz   = 1e6 // hertz per megahertz
	PJPerJ     = 1e12
	MBPerGB    = 1e3 // decimal: 1000 MB per GB
	BytesPerMB = 1e6
	BytesPerGB = 1e9

	// FLOPSPerGFLOPS and FLOPSPerTFLOPS scale the compute-throughput
	// ratings (GPU TFLOPS, CPU GFLOPS) to scalar operations per second.
	FLOPSPerGFLOPS = 1e9
	FLOPSPerTFLOPS = 1e12

	// NsPerByteAtMBps is the nanoseconds to move one byte at 1 MB/s
	// (1e9 ns/s ÷ 1e6 bytes/MB) — the factor for integer-exact MB/s
	// transfer-time math.
	NsPerByteAtMBps = 1e3
)

// KiBf, MiBf and GiBf return the size in binary units as floats, for
// human-facing report columns.
func (b Bytes) KiBf() float64 { return float64(b) / float64(KiB) }
func (b Bytes) MiBf() float64 { return float64(b) / float64(MiB) }
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// MBf, GBf and TBf return the size in decimal units as floats — the
// convention for traffic volumes (they divide evenly against MB/s and
// GB/s bandwidth figures).
func (b Bytes) MBf() float64 { return float64(b) / float64(MB) }
func (b Bytes) GBf() float64 { return float64(b) / float64(GB) }
func (b Bytes) TBf() float64 { return float64(b) / float64(TB) }

// String renders the count with an adaptive binary unit.
func (b Bytes) String() string {
	switch {
	case b >= GiB:
		return fmt.Sprintf("%.2fGiB", b.GiBf())
	case b >= MiB:
		return fmt.Sprintf("%.2fMiB", b.MiBf())
	case b >= KiB:
		return fmt.Sprintf("%.2fKiB", b.KiBf())
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Bps is a bandwidth in bytes per second.
type Bps float64

// MBps is a bandwidth in decimal megabytes (1e6 bytes) per second — the
// unit ONFI channel buses are rated in.
type MBps float64

// GBps is a bandwidth in decimal gigabytes (1e9 bytes) per second — the
// unit PCIe links and interconnects are rated in. Numerically a GBps
// value is also bytes per nanosecond, which is what makes it the natural
// unit for sim.Time math.
type GBps float64

// Conversions between the bandwidth scales (decimal throughout).

// GBps converts channel-bus MB/s to GB/s: a division by 1000.
func (m MBps) GBps() GBps { return GBps(m / MBPerGB) }

// Bps converts to raw bytes per second.
func (m MBps) Bps() Bps { return Bps(m * BytesPerMB) }
func (g GBps) Bps() Bps { return Bps(g * BytesPerGB) }

// Scale multiplies a rate by a dimensionless factor (lane counts, plane
// counts, worker counts).
func (r Bps) Scale(k float64) Bps   { return Bps(float64(r) * k) }
func (m MBps) Scale(k float64) MBps { return MBps(float64(m) * k) }

// RateBps derives a bandwidth from an amount moved in a duration.
func RateBps(b Bytes, t sim.Time) Bps {
	return Bps(float64(b) / t.Seconds())
}

// RateMBps derives a MB/s bandwidth from an amount moved in a duration,
// using the bytes-per-microsecond ≡ MB/s identity.
func RateMBps(b Bytes, t sim.Time) MBps {
	return MBps(float64(b) / (float64(t) / NsPerUs))
}

// TransferTime is the wire/media occupancy to move b bytes at the rate.
// GB/s ≡ bytes/ns, so it is a single division.
func (g GBps) TransferTime(b Bytes) sim.Time { return g.TransferTimeF(float64(b)) }

// TransferTimeF is TransferTime for fractional byte counts — extrapolated
// window totals and per-plane shares are naturally non-integral.
func (g GBps) TransferTimeF(bytes float64) sim.Time {
	return sim.Time(bytes / float64(g))
}

func (r Bps) TransferTimeF(bytes float64) sim.Time {
	return sim.Time(bytes / float64(r) * NsPerSec)
}

// TransferTimeInt is the integer-exact bus occupancy for n bytes at a
// whole-MB/s rate, truncating: ns = n × 1000 ÷ MB/s. The NAND channel
// model is specified with this integer math; keep it off the float path.
func (m MBps) TransferTimeInt(n int64) sim.Time {
	return sim.Time(n * int64(NsPerByteAtMBps) / int64(m))
}

// Duration constructors: the sanctioned ways to build a sim.Time from a
// raw number (the `simtime` analyzer flags bare sim.Time(x) conversions).

// Nanos builds a sim.Time from floating-point nanoseconds, truncating
// toward zero exactly like the raw conversion it replaces.
func Nanos(ns float64) sim.Time { return sim.Time(ns) }

// Micros builds a sim.Time from microseconds.
//
//simlint:allow unused a sanctioned constructor the simtime analyzer names; tests build times with it
func Micros(us float64) sim.Time { return sim.Time(us * NsPerUs) }

// Millis builds a sim.Time from milliseconds.
func Millis(ms float64) sim.Time { return sim.Time(ms * NsPerMs) }

// Seconds builds a sim.Time from seconds.
func Seconds(s float64) sim.Time { return sim.Time(s * NsPerSec) }

// Picojoules is an energy in pJ, the unit the per-op cost tables use.
type Picojoules float64

// CyclesAtMHz is the integer-exact duration of n cycles at a clock rate:
// ns = cycles × 1000 / MHz. It preserves the truncating integer division
// the ODP timing model is specified with.
func CyclesAtMHz(cycles int64, clockMHz int) sim.Time {
	return sim.Time(cycles * int64(NsPerUs) / int64(clockMHz))
}
