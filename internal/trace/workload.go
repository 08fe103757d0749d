// Package trace generates the synthetic workloads of the reproduction:
// deterministic pseudo-random gradients for functional verification, a
// small convex training problem for the quickstart example, and block-level
// I/O traces for the standalone SSD simulator.
//
// # Seeding convention
//
// Every generator in this package takes an explicit seed and builds its own
// rand.New(rand.NewSource(seed)) — nothing reads the global math/rand state,
// so two runs with the same seed are bit-identical regardless of what other
// packages do (the `nondeterminism` analyzer in internal/lint/checks keeps
// it that way). Callers that have no reason to vary the workload should pass
// DefaultSeed; callers that derive per-step or per-shard streams should
// offset it (seed+step), as internal/core/functional.go does.
package trace

import (
	"fmt"
	"math/rand"
)

// DefaultSeed is the conventional seed for experiments and examples that
// only need *a* reproducible workload, not a particular one. Tests that
// exercise seed-sensitivity intentionally use other values.
const DefaultSeed int64 = 42

// Gradients returns n deterministic standard-normal gradient values for the
// given seed. The same (seed, n) always produces the same slice.
func Gradients(seed int64, n int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	return g
}

// Quadratic is a strongly convex synthetic objective
// L(w) = ½‖w − target‖², whose gradient is w − target. Optimizers must
// converge to target on it; the quickstart example and the convergence
// tests use it as ground truth.
type Quadratic struct {
	Target []float32
}

// NewQuadratic builds a problem with a deterministic random target.
func NewQuadratic(seed int64, dim int) *Quadratic {
	return &Quadratic{Target: Gradients(seed, dim)}
}

// Grad writes ∇L(w) into g.
func (q *Quadratic) Grad(w, g []float32) {
	if len(w) != len(q.Target) || len(g) != len(w) {
		panic("trace: dimension mismatch")
	}
	for i := range w {
		g[i] = w[i] - q.Target[i]
	}
}

// Loss returns L(w).
func (q *Quadratic) Loss(w []float32) float64 {
	var sum float64
	for i := range w {
		d := float64(w[i] - q.Target[i])
		sum += d * d
	}
	return sum / 2
}

// Dim returns the problem dimensionality.
func (q *Quadratic) Dim() int { return len(q.Target) }

// Pattern selects a block-level access pattern for the SSD trace generator.
type Pattern int

// Access patterns.
const (
	SeqWrite Pattern = iota
	RandWrite
	SeqRead
	RandRead
	Mixed7030 // 70% random reads, 30% random writes
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case SeqWrite:
		return "seq-write"
	case RandWrite:
		return "rand-write"
	case SeqRead:
		return "seq-read"
	case RandRead:
		return "rand-read"
	case Mixed7030:
		return "mixed-70r30w"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Request is one page-granular device access.
type Request struct {
	LPA   int64
	Write bool
}

// GenerateIO produces n requests over a logical space of logicalPages,
// deterministically for the seed. Read patterns address only the first
// half of the space, which the caller is expected to have written.
func GenerateIO(p Pattern, n int, logicalPages, seed int64) []Request {
	if logicalPages <= 1 || n < 0 {
		panic(fmt.Sprintf("trace: GenerateIO(%d pages, %d reqs)", logicalPages, n))
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	readSpace := logicalPages / 2
	for i := range reqs {
		switch p {
		case SeqWrite:
			reqs[i] = Request{LPA: int64(i) % logicalPages, Write: true}
		case RandWrite:
			reqs[i] = Request{LPA: rng.Int63n(logicalPages), Write: true}
		case SeqRead:
			reqs[i] = Request{LPA: int64(i) % readSpace}
		case RandRead:
			reqs[i] = Request{LPA: rng.Int63n(readSpace)}
		case Mixed7030:
			if rng.Intn(10) < 7 {
				reqs[i] = Request{LPA: rng.Int63n(readSpace)}
			} else {
				reqs[i] = Request{LPA: rng.Int63n(logicalPages), Write: true}
			}
		default:
			panic("trace: unknown pattern")
		}
	}
	return reqs
}
