package optim

import (
	"fmt"
	"math"
)

// Adam8bit implements Adam with block-wise 8-bit quantized optimizer state
// (Dettmers et al., "8-bit Optimizers via Block-wise Quantization"): the
// first and second moments are stored as int8/uint8 with one float32
// absmax scale per block, cutting resident optimizer state from 8 to
// ~2 bytes per parameter. Each step dequantises a block, performs the
// exact Adam update in float32, and requantises.
//
// This is the "future work" lever for in-storage training: the resident
// footprint (and hence NAND program traffic and wear) of the Adam moments
// drops 4×. The timing model picks it up via the Q8State precision; no
// simulation runs this optimizer, so it lives with the tests as the
// reference the Q8State accounting is checked against.
type Adam8bit struct {
	hp        Hyper
	blockSize int
	steps     int

	m8     []int8 // signed first moment
	v8     []uint8
	mScale []float32 // per-block absmax of m
	vScale []float32 // per-block max of v
}

// NewAdam8bit builds the optimizer with the conventional QuantBlockSize
// (256-element) quantization blocks — the same constant the Q8State spec
// uses for its scale-overhead accounting.
func NewAdam8bit(hp Hyper) *Adam8bit {
	return &Adam8bit{hp: hp.withDefaults(), blockSize: QuantBlockSize}
}

// Name returns the algorithm name.
func (a *Adam8bit) Name() string { return "Adam-8bit" }

// Steps returns how many updates have been applied.
func (a *Adam8bit) Steps() int { return a.steps }

// Reset discards the quantized state.
func (a *Adam8bit) Reset() {
	a.m8, a.v8, a.mScale, a.vScale = nil, nil, nil, nil
	a.steps = 0
}

// StateBytesPerParam returns the resident optimizer-state bytes per
// parameter: two 1-byte moments plus amortised block scales.
func (a *Adam8bit) StateBytesPerParam() float64 {
	return 2 + 8/float64(a.blockSize)
}

func (a *Adam8bit) ensure(n int) {
	if a.m8 != nil {
		if len(a.m8) != n {
			panic(fmt.Sprintf("optim: Adam8bit size changed %d -> %d", len(a.m8), n))
		}
		return
	}
	blocks := (n + a.blockSize - 1) / a.blockSize
	a.m8 = make([]int8, n)
	a.v8 = make([]uint8, n)
	a.mScale = make([]float32, blocks)
	a.vScale = make([]float32, blocks)
}

// Step applies one update of w in place given gradient g.
func (a *Adam8bit) Step(w, g []float32) {
	checkLens(w, g)
	a.ensure(len(w))
	a.steps++
	t := float64(a.steps)
	lr := a.hp.LR
	b1, b2 := a.hp.Beta1, a.hp.Beta2
	eps := a.hp.Eps
	bc1 := 1 - math.Pow(b1, t)
	bc2 := 1 - math.Pow(b2, t)

	for lo := 0; lo < len(w); lo += a.blockSize {
		hi := lo + a.blockSize
		if hi > len(w) {
			hi = len(w)
		}
		blk := lo / a.blockSize

		// Dequantise, update in float32, track new block maxima.
		ms := float64(a.mScale[blk])
		vs := float64(a.vScale[blk])
		m := make([]float64, hi-lo)
		v := make([]float64, hi-lo)
		var mMax, vMax float64
		for i := lo; i < hi; i++ {
			mi := float64(a.m8[i]) / 127 * ms
			vi := float64(a.v8[i]) / 255 * vs
			grad := float64(g[i])
			mi = b1*mi + (1-b1)*grad
			vi = b2*vi + (1-b2)*grad*grad
			m[i-lo], v[i-lo] = mi, vi
			if am := math.Abs(mi); am > mMax {
				mMax = am
			}
			if vi > vMax {
				vMax = vi
			}
			upd := lr * (mi / bc1) / (math.Sqrt(vi/bc2) + eps)
			w[i] = float32(float64(w[i]) - upd)
		}

		// Requantise against the new block maxima (round to nearest).
		a.mScale[blk] = float32(mMax)
		a.vScale[blk] = float32(vMax)
		for i := lo; i < hi; i++ {
			if mMax > 0 {
				a.m8[i] = int8(math.Round(m[i-lo] / mMax * 127))
			} else {
				a.m8[i] = 0
			}
			if vMax > 0 {
				a.v8[i] = uint8(math.Round(v[i-lo] / vMax * 255))
			} else {
				a.v8[i] = 0
			}
		}
	}
}
