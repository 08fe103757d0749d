package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func testRates() Rates {
	return Rates{
		PowerLossPerSec: 200,
		DieFailPerSec:   100,
		ECCPerSec:       2000,
		Start:           0,
		Horizon:         20 * sim.Millisecond,
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(42, testRates())
	b := Schedule(42, testRates())
	if len(a) == 0 {
		t.Fatal("empty plan at these rates")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seed and rates produced different plans")
	}
	// Byte-identical, not just structurally equal.
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("plan rendering differs between identical generations")
	}
	if c := Schedule(43, testRates()); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestSchedulePropertiesAndIndependence(t *testing.T) {
	r := testRates()
	plan := Schedule(7, r)
	counts := map[Kind]int{}
	for i, ev := range plan {
		if ev.At < r.Start || ev.At >= r.Horizon {
			t.Fatalf("event %d at %v outside [%v, %v)", i, ev.At, r.Start, r.Horizon)
		}
		if i > 0 && plan[i-1].At > ev.At {
			t.Fatalf("plan unsorted at %d: %v after %v", i, ev.At, plan[i-1].At)
		}
		counts[ev.Kind]++
	}
	for _, k := range []Kind{PowerLoss, DieFailure, ECCExhaust} {
		if counts[k] == 0 {
			t.Fatalf("no %v events despite positive rate", k)
		}
	}

	// Per-kind streams are independent: zeroing one rate leaves the other
	// kinds' events untouched.
	filter := func(p Plan, k Kind) Plan {
		var out Plan
		for _, ev := range p {
			if ev.Kind == k {
				out = append(out, ev)
			}
		}
		return out
	}
	noDF := r
	noDF.DieFailPerSec = 0
	reduced := Schedule(7, noDF)
	if len(filter(reduced, DieFailure)) != 0 {
		t.Fatal("zero rate still scheduled events")
	}
	for _, k := range []Kind{PowerLoss, ECCExhaust} {
		if !reflect.DeepEqual(filter(plan, k), filter(reduced, k)) {
			t.Fatalf("%v stream perturbed by removing die failures", k)
		}
	}

	if got := Schedule(7, Rates{}); len(got) != 0 {
		t.Fatalf("zero rates scheduled %d events", len(got))
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=9,pl=2,df=1,ecc=50,start=0.5,horizon=100")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 9, PowerLossPerSec: 2, DieFailPerSec: 1, ECCPerSec: 50, StartMs: 0.5, HorizonMs: 100}
	if spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("spec should be enabled")
	}
	r := spec.Rates()
	if r.Horizon != 100*sim.Millisecond || r.Start != sim.Time(500*sim.Microsecond) {
		t.Fatalf("rates window %v-%v", r.Start, r.Horizon)
	}

	if s, err := ParseSpec(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	if s, err := ParseSpec("seed=9007199254740993"); err != nil || s.Seed != 9007199254740993 {
		t.Fatalf("seed past 2^53: %+v, %v", s, err)
	}
	for _, bad := range []string{"pl", "pl=x", "bogus=1", "pl=1,horizon=0,start=5",
		"seed=1.5", "seed=1e3", "pl=NaN,horizon=5", "ecc=Inf,horizon=5", "pl=1,horizon=Inf",
		"pl=1,start=-Inf,horizon=5", "df=1,start=NaN,horizon=5"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"":         CheckpointNone,
		"none":     CheckpointNone,
		"inplace":  CheckpointInPlace,
		"odp":      CheckpointInPlace,
		"hostpull": CheckpointHostPull,
		"host":     CheckpointHostPull,
	}
	//simlint:allow maporder each case is checked independently
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy parsed")
	}
	// Round trip through String.
	for _, p := range []Policy{CheckpointNone, CheckpointInPlace, CheckpointHostPull} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v, %v", p, got, err)
		}
	}
}

func TestCosts(t *testing.T) {
	c := Costs{
		HostStream: 80 * sim.Millisecond,
		InStorage:  10 * sim.Millisecond,
		Scan:       2 * sim.Millisecond,
		Dies:       8,
	}
	if got := c.CheckpointTime(CheckpointNone); got != 0 {
		t.Fatalf("no-checkpoint cost %v", got)
	}
	if c.CheckpointTime(CheckpointInPlace) >= c.CheckpointTime(CheckpointHostPull) {
		t.Fatal("in-place checkpoint should be cheaper than host-pull here")
	}
	// Power loss: in-place restores faster than streaming from the host.
	if c.RestoreTime(CheckpointInPlace, PowerLoss) >= c.RestoreTime(CheckpointHostPull, PowerLoss) {
		t.Fatal("in-place power-loss restore should beat host-pull")
	}
	if got := c.RestoreTime(CheckpointNone, PowerLoss); got != c.Scan+c.HostStream {
		t.Fatalf("no-checkpoint power-loss restore %v", got)
	}
	// Die failure: host-pull only re-streams the lost shard and wins.
	if c.RestoreTime(CheckpointHostPull, DieFailure) >= c.RestoreTime(CheckpointHostPull, PowerLoss) {
		t.Fatal("die-failure host-pull restore should be cheaper than full re-stream")
	}
	if got := c.RestoreTime(CheckpointHostPull, DieFailure); got != c.Scan+c.HostStream/8 {
		t.Fatalf("die-failure host-pull restore %v", got)
	}
	// ECC exhaustion is non-terminal.
	for _, p := range []Policy{CheckpointNone, CheckpointInPlace, CheckpointHostPull} {
		if got := c.RestoreTime(p, ECCExhaust); got != 0 {
			t.Fatalf("ecc restore under %v = %v", p, got)
		}
	}
}

func smallConfig() ssd.Config {
	n := nand.ParamsFor(nand.TLC)
	n.BlocksPerPlane = 8
	n.PagesPerBlock = 4
	n.PlanesPerDie = 2
	return ssd.Config{
		Channels:          2,
		DiesPerChannel:    2,
		Nand:              n,
		OverProvision:     0.25,
		GCLowWater:        2,
		GCHighWater:       3,
		HotColdSeparation: true,
		CachePages:        16,
		DRAMPageLatency:   2 * sim.Microsecond,
		CmdLatency:        5 * sim.Microsecond,
	}
}

// runWorkload drives a small deterministic write/update mix and drains.
func runWorkload(eng *sim.Engine, dev *ssd.Device) {
	logical := dev.Config().LogicalPages()
	span := logical / 2
	for i := int64(0); i < span; i++ {
		dev.Write(i, nil)
	}
	for round := 0; round < 3; round++ {
		for i := int64(0); i < span; i += 2 {
			i := i
			dev.Write(i, nil)
		}
	}
	done := false
	dev.Drain(sim.Func(func() { done = true }))
	eng.Run()
	if !done {
		panic("workload did not drain")
	}
}

// TestInjectorObservationalAndLive checks the semantics split: terminal
// kinds record state without perturbing the device, ECC exhaustion drives
// real scrub traffic and retry recovery.
func TestInjectorObservationalAndLive(t *testing.T) {
	eng := sim.NewEngine()
	dev := ssd.NewDevice(eng, smallConfig())
	// Preload a few pages so the early ECC event finds a mapped victim —
	// workload writes only commit at program completion.
	for i := int64(100); i < 108; i++ {
		dev.Preload(i)
	}
	var inj Injector
	plan := Plan{
		{Kind: PowerLoss, At: 30 * sim.Microsecond, Pick: 1},
		{Kind: DieFailure, At: 40 * sim.Microsecond, Pick: 7},
		{Kind: ECCExhaust, At: 50 * sim.Microsecond, Pick: 3},
	}
	inj.Arm(eng, dev, plan)
	runWorkload(eng, dev)
	inj.Disarm()

	fired := inj.Fired()
	if len(fired) != 3 {
		t.Fatalf("fired %d records, want 3", len(fired))
	}
	if fired[0].Kind != PowerLoss || fired[0].DirtyPages <= 0 {
		t.Fatalf("power loss record %+v: expected dirty pages mid-workload", fired[0])
	}
	if fired[1].Kind != DieFailure {
		t.Fatalf("record 1 %+v", fired[1])
	}
	geo := dev.Geometry()
	if fired[1].Channel < 0 || fired[1].Channel >= geo.Channels ||
		fired[1].Die < 0 || fired[1].Die >= geo.DiesPerChannel {
		t.Fatalf("die failure picked %d/%d outside topology", fired[1].Channel, fired[1].Die)
	}
	if fired[2].Kind != ECCExhaust || fired[2].LPA < 0 {
		t.Fatalf("ecc record %+v: expected a mapped victim", fired[2])
	}
	s := dev.Stats()
	if s.ScrubReads != 1 {
		t.Fatalf("scrub reads %d, want 1", s.ScrubReads)
	}
	if s.RecoveredErrors == 0 {
		t.Fatal("ECC exhaustion forced no retry recovery")
	}
	if err := dev.FTL().CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestDisarmedFaultsAreFree is the device-level metamorphic check: a run
// whose armed faults all land after completion is byte-identical (event
// count, clock, stats) to a fault-free run.
func TestDisarmedFaultsAreFree(t *testing.T) {
	run := func(arm bool) (uint64, sim.Time, ssd.Stats) {
		eng := sim.NewEngine()
		dev := ssd.NewDevice(eng, smallConfig())
		var inj Injector
		if arm {
			// Far beyond any plausible end of the workload.
			plan := Schedule(1, Rates{
				PowerLossPerSec: 500, DieFailPerSec: 500, ECCPerSec: 500,
				Start: 10 * sim.Second, Horizon: 11 * sim.Second,
			})
			if len(plan) == 0 {
				t.Fatal("empty late plan")
			}
			inj.Arm(eng, dev, plan)
		}
		logical := dev.Config().LogicalPages()
		for i := int64(0); i < logical/2; i++ {
			dev.Write(i, nil)
		}
		var fired uint64
		var now sim.Time
		var stats ssd.Stats
		dev.Drain(sim.Func(func() {
			inj.Disarm()
			fired = eng.Fired()
			now = eng.Now()
			stats = dev.Stats()
		}))
		eng.Run()
		if len(inj.Fired()) != 0 {
			t.Fatal("late faults fired before completion")
		}
		return fired, now, stats
	}
	f0, n0, s0 := run(false)
	f1, n1, s1 := run(true)
	if f0 != f1 || n0 != n1 || !reflect.DeepEqual(s0, s1) {
		t.Fatalf("faulted-after-completion run diverged: fired %d/%d now %v/%v stats %+v vs %+v",
			f0, f1, n0, n1, s0, s1)
	}
}

// TestDisarmLeavesReusedEventsAlone checks that Disarm cancels only
// faults still pending. The engine recycles a fired event's struct for a
// later schedule, so a handle kept past its fault's firing may by then
// name another model's event, which Disarm must not cancel.
func TestDisarmLeavesReusedEventsAlone(t *testing.T) {
	eng := sim.NewEngine()
	dev := ssd.NewDevice(eng, smallConfig())
	var inj Injector
	inj.Arm(eng, dev, Plan{{Kind: PowerLoss, At: 10 * sim.Microsecond, Pick: 1}})
	probed := false
	eng.At(20*sim.Microsecond, func() {
		eng.Schedule(50*sim.Microsecond, inj.Disarm)
		eng.Schedule(100*sim.Microsecond, func() { probed = true })
	})
	eng.Run()
	if len(inj.Fired()) != 1 {
		t.Fatalf("fired %d faults, want 1", len(inj.Fired()))
	}
	if !probed {
		t.Fatal("Disarm cancelled an event scheduled after its fault fired")
	}
}
