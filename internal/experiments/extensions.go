package experiments

import (
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
)

// boolAxis is a two-valued axis, false first.
func boolAxis(name string) Axis {
	return Axis{Name: name, Values: []AxisValue{
		{Label: "false", Meta: false},
		{Label: "true", Meta: true},
	}}
}

// updateLoad is the windowed background update stream of F17 and F19:
// total ProgramUpdates on dev, at most 64 in flight, the i-th to page
// next(i). The load is the handler of every update it issues (Fire).
type updateLoad struct {
	dev                 *ssd.Device
	next                func(i int64) int64
	total, issued, done int64
	// onDone, when set, runs after each completion is counted and before
	// the window refills.
	onDone func()
}

func (l *updateLoad) pump() {
	for l.issued-l.done < 64 && l.issued < l.total {
		lpa := l.next(l.issued)
		l.issued++
		l.dev.ProgramUpdate(lpa, l)
	}
}

// Fire counts one completed update and refills the window.
func (l *updateLoad) Fire() {
	l.done++
	if l.onDone != nil {
		l.onDone()
	}
	l.pump()
}

// run issues the first window, lets start (when set) add foreground
// load, and runs the device until it drains.
func (l *updateLoad) run(start func()) error {
	l.pump()
	if start != nil {
		start()
	}
	return l.dev.RunDrained()
}

// readQoS is one F17 row.
type readQoS struct {
	p50, p99          float64
	updates, preempts uint64
}

// specF17 is the read-QoS extension: tail latency of foreground reads
// (e.g. inference serving from the same drive) while the training update
// stream hammers the planes, with and without program/erase suspend.
// Suspend lets a 65 µs read preempt a 300 µs program instead of queueing
// behind it.
func specF17() Spec {
	return Spec{
		ID: "F17", Title: "Read QoS under update load: program suspend (extension)",
		Axes: func(Options) []Axis { return []Axis{boolAxis("read-suspend")} },
		Derive: func(opts Options, c *Cell) (any, error) {
			rounds := 6
			if opts.Quick {
				rounds = 3
			}
			return measureReadQoS(c.Values[0].Meta.(bool), rounds)
		},
		Tables: []TableSpec{{
			Title:  "F17: foreground-read QoS under update load",
			Header: []string{"read-suspend", "read-p50-us", "read-p99-us", "updates-done", "preemptions"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				q := c.Aux.(readQoS)
				return [][]any{{c.Values[0].Meta.(bool), q.p50, q.p99, q.updates, q.preempts}}
			},
		}},
	}
}

// measureReadQoS runs `rounds` full update sweeps in the background with a
// foreground read every 200 µs and reports the read-latency percentiles.
func measureReadQoS(suspend bool, rounds int) (readQoS, error) {
	cfg := ssd.UpdateWAFConfig(nand.TLC, 0.2)
	cfg.Nand.ReadSuspend = suspend
	cfg.Nand.ResumeOverhead = 20 * sim.Microsecond
	dev, err := ssd.NewPreloaded(cfg, nil)
	if err != nil {
		return readQoS{}, err
	}
	eng := dev.Engine()
	pages := cfg.LogicalPages()
	load := &updateLoad{dev: dev, total: pages * int64(rounds),
		next: func(i int64) int64 { return i % pages }}

	lat := stats.NewHist()
	var reader func(i int64)
	reader = func(i int64) {
		if load.done >= load.total {
			return
		}
		lpa := (i * 7919) % pages
		start := eng.Now()
		dev.Read(lpa, sim.Func(func() {
			lat.Add((eng.Now() - start).Micros())
		}))
		eng.Schedule(200*sim.Microsecond, func() { reader(i + 1) })
	}
	if err := load.run(func() { eng.Schedule(0, func() { reader(0) }) }); err != nil {
		return readQoS{}, err
	}
	var preempts uint64
	for ch := 0; ch < cfg.Channels; ch++ {
		dies := dev.Channel(ch).Dies()
		for i := range dies {
			preempts += dies[i].Preemptions()
		}
	}
	return readQoS{lat.Percentile(50), lat.Percentile(99), dev.Stats().UpdateWrites, preempts}, nil
}

// skewedWAF is one F19 row.
type skewedWAF struct {
	waf    float64
	relocs uint64
	rate   float64
}

// specF19 is the GC stream-separation ablation: write amplification of a
// skewed update stream (a hot subset rewritten constantly over a cold
// majority) with GC relocations directed to their own blocks vs mixed
// into the update stream's blocks.
func specF19() Spec {
	return Spec{
		ID: "F19", Title: "GC hot/cold stream separation (extension)",
		Axes: func(Options) []Axis { return []Axis{boolAxis("separation")} },
		Derive: func(opts Options, c *Cell) (any, error) {
			rounds := 10
			if opts.Quick {
				rounds = 5
			}
			return measureSkewedWAF(c.Values[0].Meta.(bool), rounds)
		},
		Tables: []TableSpec{{
			Title:  "F19: GC hot/cold stream separation",
			Header: []string{"separation", "WAF", "gc-relocations", "updates/s (window)"},
			Rows: func(o Options, g *Grid, c *Cell) [][]any {
				r := c.Aux.(skewedWAF)
				return [][]any{{c.Values[0].Meta.(bool), r.waf, r.relocs, r.rate}}
			},
		}},
	}
}

// measureSkewedWAF drives a hot/cold skewed update stream: a quarter of
// the pages receive 98% of the updates.
func measureSkewedWAF(separation bool, rounds int) (skewedWAF, error) {
	cfg := ssd.UpdateWAFConfig(nand.TLC, 0.125)
	cfg.HotColdSeparation = separation
	pages := cfg.LogicalPages()
	// Precondition in shuffled order so hot and cold pages start physically
	// interleaved, as on an aged drive — the state stream separation has to
	// untangle.
	dev, err := ssd.NewPreloaded(cfg, shuffledPages(pages, 0x2545F4914F6CDD1D, 33))
	if err != nil {
		return skewedWAF{}, err
	}
	eng, ftl := dev.Engine(), dev.FTL()
	hot := pages / 4
	// Deterministic LCG picks the next update target: 98% hot, 2% cold.
	state := uint64(0x853C49E6748FEA9B)
	load := &updateLoad{dev: dev, total: pages * int64(rounds), next: func(int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		if r%100 < 98 {
			return int64(r) % hot
		}
		return hot + int64(r)%(pages-hot)
	}}
	var baseHost, baseGC uint64
	var start sim.Time
	load.onDone = func() {
		if load.done == load.total/4 { // skip warm-up for steady-state WAF
			baseHost, baseGC, start = ftl.HostProgrammed(), ftl.GCProgrammed(), eng.Now()
		}
	}
	if err := load.run(nil); err != nil {
		return skewedWAF{}, err
	}
	host := ftl.HostProgrammed() - baseHost
	gc := ftl.GCProgrammed() - baseGC
	if host == 0 {
		return skewedWAF{waf: 1}, nil
	}
	r := skewedWAF{waf: float64(host+gc) / float64(host), relocs: dev.Stats().GCRelocations}
	if elapsed := (eng.Now() - start).Seconds(); elapsed > 0 {
		r.rate = float64(host) / elapsed
	}
	return r, nil
}
