package ssd

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/sim"
	"repro/internal/units"
)

// opTracer records a device's observable behaviour as text: every op
// completion with its simulated time, every FTL op boundary and every
// mapping commit, in event order.
type opTracer struct {
	e   *sim.Engine
	b   strings.Builder
	ops int
}

// done returns a completion callback that logs op kind/lpa with the next
// op id (assigned at issue, so completion order is visible).
func (tr *opTracer) done(kind string, lpa int64) func() {
	tr.ops++
	id := tr.ops
	return func() { fmt.Fprintf(&tr.b, "%d done #%d %s %d\n", tr.e.Now(), id, kind, lpa) }
}

func (tr *opTracer) attach(d *Device) {
	d.SetBoundaryHook(func(b Boundary) {
		fmt.Fprintf(&tr.b, "%d boundary %d %v %d\n", tr.e.Now(), b.Seq, b.Kind, b.LPA)
	})
	d.SetCommitHook(func(lpa, oldLin, newLin int64, gc bool) {
		fmt.Fprintf(&tr.b, "%d commit %d %d->%d gc=%v\n", tr.e.Now(), lpa, oldLin, newLin, gc)
	})
}

func (tr *opTracer) phase(t *testing.T, d *Device, name string) {
	t.Helper()
	runDrained(t, tr.e, d)
	s := d.Stats()
	fmt.Fprintf(&tr.b, "# %s t=%d stats=%+v\n", name, tr.e.Now(), s)
}

// scriptDevice drives one device through every Device operation family:
// read hits and misses, writes through the cache, ReadMapped and
// ScrubRead with injected read-retry, ProgramUpdate under GC pressure
// with interleaved trims (stale relocations), a retirement relocation
// and both die transfers.
func scriptDevice(t *testing.T, cfg Config, seed int64) string {
	t.Helper()
	e := sim.NewEngine()
	d := NewDevice(e, cfg)
	tr := &opTracer{e: e}
	tr.attach(d)
	n := d.Config().LogicalPages() * 3 / 4
	for lpa := int64(0); lpa < n; lpa++ {
		d.Preload(lpa)
	}
	tr.phase(t, d, "preload")

	// Writes through the cache, more than it has slots; a read issued at
	// each host ack is a cache hit, a read of an untouched page a miss.
	// Rewrites of one page stack dirty copies.
	for i := int64(0); i < 20; i++ {
		lpa := i % 9
		d.Write(lpa, func() {
			tr.done("write", lpa)()
			d.Read(lpa, tr.done("read-hit", lpa))
		})
		d.Read(n-1-i, tr.done("read", n-1-i))
	}
	tr.phase(t, d, "write-read")

	// Read-retry on every read family, including errors injected while a
	// retry is in flight.
	d.InjectReadErrors(3, 2)
	d.ReadMapped(3, tr.done("readmapped", 3))
	d.InjectReadErrors(4, 1)
	d.ScrubRead(4, tr.done("scrub", 4))
	d.InjectReadErrors(5, 1)
	d.Read(5, tr.done("read", 5))
	e.Schedule(cfg.Nand.ReadLatency+1, func() { d.InjectReadErrors(3, 1) })
	d.ScrubRead(n+1, tr.done("scrub-unmapped", n+1))
	tr.phase(t, d, "read-retry")

	// In-storage updates under GC pressure, mixed with host writes and
	// trims, never draining in between: writers queue for space and
	// relocations race with updates and trims.
	rng := rand.New(rand.NewSource(seed))
	var at sim.Time
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(int(n)) {
			lpa := int64(i)
			kind := rng.Intn(12)
			at += units.Micros(float64(rng.Intn(40)))
			e.Schedule(at, func() {
				switch kind {
				case 0:
					d.Trim(lpa)
				case 1:
					d.Write(lpa, tr.done("write", lpa))
				case 2:
					if _, ok := d.FTL().Lookup(lpa); ok {
						d.ReadMapped(lpa, tr.done("readmapped", lpa))
					}
				default:
					if _, ok := d.FTL().Lookup(lpa); ok {
						d.ProgramUpdate(lpa, tr.done("update", lpa))
					}
				}
			})
		}
	}
	tr.phase(t, d, "update-gc")

	// Retirement: a scrub converging after the whole retry budget retires
	// the block and relocates its residents.
	if cfg.Retire.Enabled() {
		lpa, ok := d.NthMappedLPA(7)
		if !ok {
			t.Fatal("nothing mapped")
		}
		d.InjectReadErrors(lpa, cfg.Retire.RetryBudget)
		d.ScrubRead(lpa, tr.done("scrub-retire", lpa))
		d.ProgramUpdate(lpa, tr.done("update", lpa))
		tr.phase(t, d, "retire")
	}

	// Die transfers contend for the channel buses with reads.
	geo := d.Geometry()
	for i := 0; i < 8; i++ {
		ch, die := i%geo.Channels, (i/geo.Channels)%geo.DiesPerChannel
		d.TransferToDie(ch, die, 4096*(i+1), tr.done(fmt.Sprintf("to-die-%d/%d", ch, die), int64(i)))
		d.TransferFromDie(ch, die, 2048*(i+1), tr.done(fmt.Sprintf("from-die-%d/%d", ch, die), int64(i)))
		if lpa, ok := d.NthMappedLPA(int64(i)); ok {
			d.Read(lpa, tr.done("read", lpa))
		}
	}
	tr.phase(t, d, "transfer")
	return tr.b.String()
}

// TestDeviceOpTraceGolden pins the device's event order byte for byte:
// every completion time and the op-boundary sequence of a scripted run
// must match the committed trace. Regenerate deliberately with
// UPDATE_GOLDEN=1 go test -run TestDeviceOpTraceGolden ./internal/ssd/.
func TestDeviceOpTraceGolden(t *testing.T) {
	retire := smallConfig()
	retire.Retire = ecc.RetirePolicy{RetryBudget: 6, ProbationReads: 2}
	hotCold := smallConfig()
	hotCold.HotColdSeparation = true
	suspend := smallConfig()
	suspend.Retire = retire.Retire
	suspend.Nand.ReadSuspend = true
	suspend.Nand.ResumeOverhead = 3 * sim.Microsecond
	var b strings.Builder
	b.WriteString("## retirement on\n")
	b.WriteString(scriptDevice(t, retire, 5))
	b.WriteString("## hot/cold separation, retirement off\n")
	b.WriteString(scriptDevice(t, hotCold, 9))
	b.WriteString("## read suspend, retirement on\n")
	b.WriteString(scriptDevice(t, suspend, 5))
	got := b.String()

	const path = "testdata/device_op_trace.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("op trace diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("op trace length %d lines, want %d", len(gl), len(wl))
	}
}
