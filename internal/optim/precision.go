package optim

import "fmt"

// Precision selects the training numeric regime. It determines how many
// bytes per parameter cross each interface — the quantity every timing and
// energy result in the reproduction hinges on.
type Precision int

// Supported precision regimes.
const (
	// FP32 keeps everything in float32: weights, gradients, state.
	FP32 Precision = iota
	// Mixed16 is the standard large-model regime: FP16 gradients arrive,
	// FP32 master weights and moments live in storage, FP16 weights are
	// produced for the next forward pass. (BF16 has identical byte counts.)
	Mixed16
	// Q8State is Mixed16 with block-wise 8-bit quantized optimizer moments
	// (Dettmers et al.): resident state shrinks 4×, cutting NAND program
	// traffic and wear. Master weights stay FP32. See optim.Adam8bit for
	// the verified algorithm.
	Q8State
)

// String names the regime.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32"
	case Mixed16:
		return "Mixed16"
	case Q8State:
		return "Mixed16+Q8state"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// StateWordsFor returns the float32 state words per parameter the
// algorithm keeps beyond the master weight, without constructing an
// optimizer.
func StateWordsFor(kind Kind) int {
	switch kind {
	case SGD:
		return 0
	case Momentum, Nesterov, Adagrad, RMSProp:
		return 1
	case Adam, AdamW, LAMB, AdamA:
		return 2
	case AMSGrad:
		return 3
	default:
		panic(fmt.Sprintf("optim: unknown kind %d", int(kind)))
	}
}

// QuantBlockSize is the block length of the block-wise 8-bit state
// quantization (Dettmers et al.): one float32 absmax scale per state word
// per block of this many parameters. Adam8bit and the Q8State spec share
// it so the concrete optimizer and the traffic accounting can never
// disagree about the scale overhead.
const QuantBlockSize = 256

// StateSpec describes the per-parameter byte footprint of one
// (optimizer, precision) pair across every interface of the system.
type StateSpec struct {
	Kind      Kind
	Precision Precision

	// MasterBytes is the resident master weight (always FP32: 4).
	MasterBytes int
	// StateBytes is the resident optimizer state (moments etc.).
	StateBytes int
	// ScaleBytesPerParam is the amortised per-parameter overhead of
	// block-wise quantization metadata (the float32 absmax scales of
	// Q8State: one per state word per QuantBlockSize parameters). Zero
	// for unquantized precisions. Fractional, so footprint methods that
	// include it return float64.
	ScaleBytesPerParam float64
	// GradBytes is the per-parameter gradient arriving from the host.
	GradBytes int
	// WeightOutBytes is the per-parameter working-precision weight
	// returned to the host for the next forward pass.
	WeightOutBytes int
}

// SpecFor computes the byte footprint for an (optimizer, precision) pair.
func SpecFor(kind Kind, p Precision) StateSpec {
	s := StateSpec{
		Kind:        kind,
		Precision:   p,
		MasterBytes: 4,
		StateBytes:  4 * StateWordsFor(kind),
	}
	switch p {
	case FP32:
		s.GradBytes = 4
		s.WeightOutBytes = 4
	case Mixed16:
		s.GradBytes = 2
		s.WeightOutBytes = 2
	case Q8State:
		s.GradBytes = 2
		s.WeightOutBytes = 2
		s.StateBytes = StateWordsFor(kind) // 1 byte per state word
		// One float32 absmax per state word per quantization block —
		// the same accounting Adam8bit.StateBytesPerParam makes.
		s.ScaleBytesPerParam = float64(4*StateWordsFor(kind)) / QuantBlockSize
	default:
		panic(fmt.Sprintf("optim: unknown precision %d", int(p)))
	}
	return s
}

// WithAccum returns the spec with n gradient-accumulation passes per
// step priced in: AdamA (Zhang et al.) folds each micro-batch gradient
// into the resident moments, so a step of n micro-batches moves n
// gradients' worth of traffic while the resident state is still read and
// written once. n below 1 is treated as 1.
func (s StateSpec) WithAccum(n int) StateSpec {
	if n > 1 {
		s.GradBytes *= n
	}
	return s
}

// ResidentBytes is the per-parameter footprint living in storage,
// including fractional quantization-scale overhead.
func (s StateSpec) ResidentBytes() float64 {
	return float64(s.MasterBytes+s.StateBytes) + s.ScaleBytesPerParam
}

// HostTrafficBytes is the per-parameter traffic that must cross the
// host↔device interface per step when the update happens in storage:
// gradient in, working-precision weight out.
func (s StateSpec) HostTrafficBytes() int { return s.GradBytes + s.WeightOutBytes }

// OffloadTrafficBytes is the per-parameter host↔device traffic per step
// when the update happens at the host: the entire resident state is read
// and written back, gradients stay on the host, and the working-precision
// weight is produced host-side for free.
func (s StateSpec) OffloadTrafficBytes() float64 { return 2 * s.ResidentBytes() }
