package units

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestCapacityConstants(t *testing.T) {
	if KiB != 1024 || MiB != 1024*KiB || GiB != 1024*MiB || TiB != 1024*GiB {
		t.Fatalf("binary constants wrong: %d %d %d %d", KiB, MiB, GiB, TiB)
	}
	if KB != 1000 || MB != 1000*KB || GB != 1000*MB || TB != 1000*GB {
		t.Fatalf("decimal constants wrong: %d %d %d %d", KB, MB, GB, TB)
	}
	// The 1000-vs-1024 split the package exists to police: a 16 KiB page
	// is 16384 bytes, not 16000.
	if page := 16 * KiB; int64(page) != 16384 {
		t.Fatalf("16 KiB = %d", int64(page))
	}
}

func TestBandwidthConversions(t *testing.T) {
	// Bandwidths are decimal: 9600 MB/s is 9.6 GB/s, not 9.375.
	//simlint:allow floateq conversion factors are specified exact
	if got := MBps(9600).GBps(); got != 9.6 {
		t.Fatalf("9600 MB/s = %v GB/s, want 9.6", got)
	}
	//simlint:allow floateq conversion factors are specified exact
	if got := MBps(1200).Bps(); got != 1.2e9 {
		t.Fatalf("1200 MB/s = %v B/s", got)
	}
	//simlint:allow floateq conversion factors are specified exact
	if got := GBps(4).Bps(); got != 4e9 {
		t.Fatalf("4 GB/s = %v B/s", got)
	}
}

func TestTransferTime(t *testing.T) {
	// GB/s ≡ bytes/ns: 4e9 bytes at 4 GB/s is exactly one second.
	if got := GBps(4).TransferTime(4 * GB); got != sim.Second {
		t.Fatalf("4 GB at 4 GB/s = %v, want 1s", got)
	}
	// The B/s path must agree with the GB/s path on round numbers.
	if got := Bps(4e9).TransferTimeF(float64(4 * GB)); got != sim.Second {
		t.Fatalf("4 GB at 4e9 B/s = %v, want 1s", got)
	}
	// Truncation matches the raw conversions the helpers replaced:
	// 10 bytes at 3 GB/s is 3.33 ns → 3 ns.
	if got := GBps(3).TransferTime(10); got != 3 {
		t.Fatalf("truncation: %v", got)
	}
	// Fractional byte counts (extrapolated windows) keep their fraction.
	if got := GBps(1).TransferTimeF(2.5); got != 2 {
		t.Fatalf("fractional: %v", got)
	}
}

func TestRates(t *testing.T) {
	// A 16 KiB page sensed in 50 µs is 16384/50 bytes/µs ≡ 327.68 MB/s.
	page := 16 * KiB
	tR := 50 * sim.Microsecond
	if got := RateMBps(page, tR); math.Abs(float64(got)-327.68) > 1e-9 {
		t.Fatalf("page rate %v MB/s, want 327.68", got)
	}
	if got := RateBps(page, tR); math.Abs(float64(got)-327.68e6) > 1e-3 {
		t.Fatalf("page rate %v B/s, want 327.68e6", got)
	}
	// Rate → transfer time round-trips the duration.
	if got := RateBps(page, tR).TransferTimeF(float64(page)); got != tR {
		t.Fatalf("round trip %v, want %v", got, tR)
	}
}

func TestDurationConstructors(t *testing.T) {
	if Nanos(1500) != 1500 {
		t.Fatal("Nanos")
	}
	if Micros(2) != 2*sim.Microsecond {
		t.Fatal("Micros")
	}
	if Millis(3) != 3*sim.Millisecond {
		t.Fatal("Millis")
	}
	if Seconds(1) != sim.Second {
		t.Fatal("Seconds")
	}
	// Truncation toward zero, exactly like sim.Time(x).
	if Nanos(2.9) != 2 {
		t.Fatal("Nanos truncation")
	}
}

func TestCyclesAtMHz(t *testing.T) {
	// 400 cycles at 400 MHz is exactly 1000 ns.
	if got := CyclesAtMHz(400, 400); got != sim.Microsecond {
		t.Fatalf("400cyc@400MHz = %v", got)
	}
	// Integer truncation is part of the contract (matches the ODP model).
	if got := CyclesAtMHz(1, 400); got != 2 {
		t.Fatalf("1cyc@400MHz = %v, want 2 (2.5 truncated)", got)
	}
}

func TestByteFormatting(t *testing.T) {
	if s := (16 * KiB).String(); s != "16.00KiB" {
		t.Fatalf("String: %q", s)
	}
	if s := Bytes(512).String(); s != "512B" {
		t.Fatalf("String: %q", s)
	}
	//simlint:allow floateq conversion factors are specified exact
	if got := (2 * GiB).GiBf(); got != 2 {
		t.Fatalf("GiBf: %v", got)
	}
	//simlint:allow floateq conversion factors are specified exact
	if got := (3 * GB).GBf(); got != 3 {
		t.Fatalf("GBf: %v", got)
	}
}
