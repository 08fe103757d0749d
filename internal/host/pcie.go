// Package host models the system outside the SSD: the PCIe/NVMe link,
// the training accelerator (GPU) and the host CPU update engine used by
// offload baselines.
package host

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// LinkParams describes a full-duplex host↔device interconnect.
type LinkParams struct {
	Name string
	// GBps is the raw per-direction bandwidth in GB/s (1e9 bytes).
	GBps float64
	// Efficiency derates raw bandwidth for protocol framing, TLP headers
	// and NVMe overheads (0 < Efficiency <= 1).
	Efficiency float64
	// Latency is the per-transfer initiation latency (DMA setup, doorbell).
	Latency sim.Time
}

// PCIe returns link parameters for a PCIe generation and lane count.
// Raw per-lane rates: gen3 0.985 GB/s, gen4 1.969 GB/s, gen5 3.938 GB/s.
// Any other generation is an error naming these three.
func PCIe(gen, lanes int) (LinkParams, error) {
	var perLane float64
	switch gen {
	case 3:
		perLane = 0.985
	case 4:
		perLane = 1.969
	case 5:
		perLane = 3.938
	default:
		return LinkParams{}, fmt.Errorf("host: unsupported PCIe gen %d (supported: 3, 4, 5)", gen)
	}
	return LinkParams{
		Name:       fmt.Sprintf("PCIe%d x%d", gen, lanes),
		GBps:       perLane * float64(lanes),
		Efficiency: 0.85,
		Latency:    10 * sim.Microsecond,
	}, nil
}

// Validate reports the first structural problem.
func (p LinkParams) Validate() error {
	if p.GBps <= 0 || p.Efficiency <= 0 || p.Efficiency > 1 || p.Latency < 0 {
		return fmt.Errorf("host: link params %+v", p)
	}
	return nil
}

// EffectiveGBps is the usable per-direction bandwidth.
func (p LinkParams) EffectiveGBps() units.GBps { return units.GBps(p.GBps * p.Efficiency) }

// TransferTime returns the wire occupancy for n bytes (excluding Latency).
func (p LinkParams) TransferTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	t := p.EffectiveGBps().TransferTime(units.Bytes(n))
	if t < 1 {
		t = 1
	}
	return t
}

// Link is a simulated full-duplex interconnect: each direction is a serial
// resource, so concurrent transfers in one direction queue while opposite
// directions proceed in parallel.
type Link struct {
	params   LinkParams
	toDev    *sim.Resource
	fromDev  *sim.Resource
	bytesTo  uint64
	bytesFrm uint64
}

// NewLink builds a link on the engine; invalid params panic.
func NewLink(eng *sim.Engine, p LinkParams) *Link {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Link{
		params:  p,
		toDev:   sim.NewResource(eng, p.Name+"/down", 1),
		fromDev: sim.NewResource(eng, p.Name+"/up", 1),
	}
}

// ToDevice transfers n bytes host→device, then fires done.
func (l *Link) ToDevice(n int64, done sim.Handler) {
	l.bytesTo += uint64(n)
	l.toDev.Use(l.params.Latency+l.params.TransferTime(n), done)
}

// FromDevice transfers n bytes device→host, then fires done.
func (l *Link) FromDevice(n int64, done sim.Handler) {
	l.bytesFrm += uint64(n)
	l.fromDev.Use(l.params.Latency+l.params.TransferTime(n), done)
}

// StreamToDevice transfers n bytes host→device as one segment of an
// already-programmed streaming DMA sequence: the device walks a standing
// descriptor ring, so the segment pays wire occupancy only — no
// per-transfer initiation latency. The interleaved-offload pipeline uses
// this for its subgroup prefetch/write-back streams; the per-stream
// doorbell is amortised over the whole subgroup and is negligible next to
// the stream's occupancy. Byte accounting is identical to ToDevice.
func (l *Link) StreamToDevice(n int64, done sim.Handler) {
	l.bytesTo += uint64(n)
	l.toDev.Use(l.params.TransferTime(n), done)
}

// StreamFromDevice transfers n bytes device→host as one segment of a
// streaming DMA sequence (see StreamToDevice).
func (l *Link) StreamFromDevice(n int64, done sim.Handler) {
	l.bytesFrm += uint64(n)
	l.fromDev.Use(l.params.TransferTime(n), done)
}

// BytesToDevice returns the total bytes moved host→device.
func (l *Link) BytesToDevice() uint64 { return l.bytesTo }

// BytesFromDevice returns the total bytes moved device→host.
func (l *Link) BytesFromDevice() uint64 { return l.bytesFrm }

// Utilization returns the mean busy fraction of the busier direction.
func (l *Link) Utilization() float64 {
	u1, u2 := l.toDev.Utilization(), l.fromDev.Utilization()
	if u1 > u2 {
		return u1
	}
	return u2
}
