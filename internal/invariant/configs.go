package invariant

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/nand"
	"repro/internal/optim"
	"repro/internal/ssd"
)

// Configs returns n feasible experiment configurations drawn from a seeded
// generator, spanning the design dimensions the reproduction sweeps: NAND
// cell type and topology, PCIe generation and width, optimizer family,
// state precision, model size and sparsity, window size and overlap mode.
// The same seed always yields the same slice, so test failures reproduce
// by index. Every returned config passes core.Config.Validate and keeps
// the simulation window small enough to run in milliseconds while leaving
// the device under ~1/3 full (mild, realistic GC rather than thrash).
func Configs(seed int64, n int) []core.Config {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Config, 0, n)
	for len(out) < n {
		cfg := sample(rng)
		if cfg.Validate() != nil {
			continue
		}
		if !windowFits(cfg) {
			continue
		}
		out = append(out, cfg)
	}
	return out
}

// elementWise are the optimizer kinds whose update touches each parameter
// independently; LAMB (two passes + a global reduction) is sampled too,
// but less often, since it exercises a different pipeline shape.
var elementWise = []optim.Kind{
	optim.SGD, optim.Momentum, optim.Nesterov, optim.Adagrad,
	optim.RMSProp, optim.Adam, optim.AdamW, optim.AMSGrad, optim.AdamA,
}

func sample(rng *rand.Rand) core.Config {
	cell := []nand.CellType{nand.SLC, nand.MLC, nand.TLC, nand.QLC}[rng.Intn(4)]
	// ssd.DefaultConfig's 64-block window keeps FTL maps (and preload
	// time) proportionate to the few hundred units actually simulated.
	sc := ssd.DefaultConfig()
	sc.Nand = sc.Nand.InCell(cell)
	sc.Channels = []int{2, 4, 8}[rng.Intn(3)]
	sc.DiesPerChannel = []int{1, 2, 4}[rng.Intn(3)]
	sc.HotColdSeparation = rng.Intn(2) == 0

	opt := elementWise[rng.Intn(len(elementWise))]
	if rng.Intn(8) == 0 {
		opt = optim.LAMB
	}

	model := sampleModel(rng)

	cfg := core.DefaultConfig(model)
	cfg.SSD = sc
	link, err := host.PCIe([]int{3, 4, 5}[rng.Intn(3)], []int{4, 8, 16}[rng.Intn(3)])
	if err != nil {
		panic(err) // every sampled generation is supported
	}
	cfg.Link = link
	cfg.Optimizer = opt
	cfg.Precision = []optim.Precision{optim.FP32, optim.Mixed16, optim.Q8State}[rng.Intn(3)]
	cfg.Layout = layout.Colocated
	if rng.Intn(5) == 0 {
		cfg.Layout = []layout.Strategy{layout.Linear, layout.SplitByComponent}[rng.Intn(2)]
	}
	cfg.Batch = []int{1, 4, 16}[rng.Intn(3)]
	cfg.MaxSimUnits = []int64{96, 128, 192, 256}[rng.Intn(4)]
	cfg.TransferChunkBytes = []int64{256 << 10, 1 << 20}[rng.Intn(2)]
	cfg.OverlapFraction = rng.Float64()
	cfg.LayerwiseOverlap = rng.Intn(10) == 0
	// Scale the on-die units across a plausible design range.
	cfg.ODP.ClockMHz = []int{200, 400, 800}[rng.Intn(3)]
	cfg.ODP.Lanes = []int{4, 8, 16}[rng.Intn(3)]
	// AdamA folds micro-batch gradients into state; other kinds reject
	// GradAccum > 1 in Validate, so only sample it for AdamA.
	if cfg.Optimizer == optim.AdamA {
		cfg.GradAccum = []int{1, 2, 4, 8}[rng.Intn(4)]
	}
	// Subgroup depth for the interleaved system (ignored by the others).
	cfg.InterleaveDepth = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
	return cfg
}

// sampleModel draws mostly dense transformers log-uniform in [1M, 2B]
// parameters, with an occasional sparse recommender whose step touches a
// small fraction of an embedding-dominated parameter space.
func sampleModel(rng *rand.Rand) dnn.Model {
	if rng.Intn(6) == 0 {
		return dnn.Model{
			Name:           "synth-dlrm",
			Arch:           dnn.Recommender,
			Params:         int64(1e8 * (1 + rng.Float64()*9)), // 100M–1B
			Layers:         8,
			FlopsPerSample: 1e9,
			SparseFraction: []float64{1e-3, 1e-2, 0.1}[rng.Intn(3)],
		}
	}
	// Log-uniform parameter count: params = minParams · 2000^u, spanning
	// one-million-parameter toys to two-billion-parameter models.
	const minParams = 1_000_000
	params := int64(minParams * math.Pow(2000, rng.Float64()))
	return dnn.Model{
		Name:   "synth-gpt",
		Arch:   dnn.Transformer,
		Params: params,
		Layers: 2 + rng.Intn(31),
		Hidden: 1024,
		SeqLen: 512,
	}
}

// windowFits accepts configurations whose simulated window (preloaded
// pages plus one log-structured rewrite of each) occupies at most a third
// of the device's physical pages, so preload cannot overfill any plane and
// GC stays in its steady-state regime.
func windowFits(cfg core.Config) bool {
	windowPages := cfg.SimUnits() * int64(cfg.Comps())
	physical := cfg.SSD.Geometry().TotalPages()
	return windowPages*3 <= physical
}
