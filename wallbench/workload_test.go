package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so the helper must sort
		}
		return s
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Error("p90 of 99 samples keeps 9 beyond it, want a refusal")
	}
	got, err := percentile(samples(100), 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	//simlint:allow floateq a nearest-rank percentile is one of the samples, bit for bit
	if got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Error("p99 of 999 samples keeps 9 beyond it, want a refusal")
	}
	if _, err := percentile(samples(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

func TestPointsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		warmA, freshA := w.points(7)
		warmB, freshB := w.points(7)
		if !reflect.DeepEqual(warmA, warmB) || !reflect.DeepEqual(freshA, freshB) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w.name)
		}
		if len(warmA) == 0 {
			t.Errorf("%s: no warm-up points", w.name)
		}
	}

	order := func(seed int64) []string {
		w, _ := workloadNamed("sweep")
		warm, fresh := w.points(seed)
		s := newSchedule(seed, warm, fresh)
		var labels []string
		for pass := 0; pass < 3; pass++ {
			pts, refs := s.batch()
			if len(pts) != len(warm) {
				t.Fatalf("a pass has %d ops, want one per warm-up point (%d)", len(pts), len(warm))
			}
			for i, p := range pts {
				if p.label != warm[refs[i]].label {
					t.Fatalf("op %s refers to warm-up point %s", p.label, warm[refs[i]].label)
				}
				labels = append(labels, p.label)
			}
		}
		return labels
	}
	if !reflect.DeepEqual(order(3), order(3)) {
		t.Error("sweep op order differs between two schedules with seed 3")
	}
	if reflect.DeepEqual(order(3), order(4)) {
		t.Error("seeds 3 and 4 gave the same sweep op order")
	}
}

func TestMixedWarmUpAndTimedSetsDisjoint(t *testing.T) {
	w, _ := workloadNamed("mixed")
	base := func(p point) uint64 {
		cfg := p.cfg
		cfg.Fault, cfg.Checkpoint = fault.Spec{}, fault.CheckpointNone
		return cfg.CanonicalHash()
	}
	warm, fresh := w.points(1)
	if len(warm) != mixedWarm || len(fresh) != mixedFresh {
		t.Fatalf("got %d warm-up and %d timed points, want %d and %d", len(warm), len(fresh), mixedWarm, mixedFresh)
	}
	seen := map[uint64]string{}
	for _, p := range warm {
		seen[base(p)] = p.label
	}
	for _, p := range fresh {
		if other, ok := seen[base(p)]; ok {
			t.Fatalf("timed point %s repeats warm-up point %s", p.label, other)
		}
	}
	warm2, _ := w.points(2)
	if reflect.DeepEqual(warm, warm2) {
		t.Error("seeds 1 and 2 gave the same mixed inputs")
	}
}

// tinyPoint is a design point that simulates in about a millisecond.
func tinyPoint(label string) point {
	cfg := core.DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = 16
	return point{label: label, system: "optimstore", cfg: cfg}
}

func TestFailedOpsCountedAndRunGoesOn(t *testing.T) {
	bad := tinyPoint("invalid")
	bad.cfg.Batch = 0
	b := &bench{}
	b.sched = newSchedule(1, nil, []point{tinyPoint("a"), bad, tinyPoint("b")})
	ph := b.timed(0, 3, nil)
	if ph.attempted != 3 || ph.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 3 and 1", ph.attempted, ph.failed)
	}
	if len(ph.failures) != 1 || !strings.Contains(ph.failures[0], "invalid") {
		t.Errorf("failures %q, want one naming the invalid point", ph.failures)
	}
	if got := ph.opsPerSec(); got <= 0 {
		t.Errorf("ops_per_s %v after two good ops, want positive", got)
	}

	// With probing, every batch is followed by one probe, and every op's
	// time at the reference speed is its measured time scaled by it.
	b = &bench{probing: true}
	b.sched = newSchedule(1, nil, []point{tinyPoint("c"), tinyPoint("d")})
	ph = b.timed(0, 2, nil)
	if len(ph.probes) != 1 || len(ph.refMs) != 2 {
		t.Fatalf("%d probes and %d scaled times for one batch of 2 ops; want 1 and 2", len(ph.probes), len(ph.refMs))
	}
	for i := range ph.opMs {
		if !approx.Close(ph.refMs[i]*ph.probes[0], ph.opMs[i]*ms(probeRef), 1e-6) {
			t.Errorf("op %d: %v ms at reference speed, %v ms measured with a %v ms probe", i, ph.refMs[i], ph.opMs[i], ph.probes[0])
		}
	}

	// A repeated op whose outcome differs from its warm-up outcome fails.
	p := tinyPoint("repeat")
	want, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	tampered := *want.report
	tampered.OptStepTime++
	b = &bench{warm: []outcome{{report: &tampered}}}
	b.sched = newSchedule(1, []point{p}, nil)
	if ph := b.timed(0, 2, nil); ph.attempted != 2 || ph.failed != 2 {
		t.Errorf("attempted %d, failed %d against a tampered warm-up outcome; want 2 and 2", ph.attempted, ph.failed)
	}
}
