// Package optim implements the DNN optimizer algorithms OptimStore
// executes in storage, as functional ("gold") float32 implementations.
// They serve three purposes: numerical verification of the simulated
// on-die kernels, per-optimizer state/traffic ratios for the timing and
// energy models, and kernel specifications (flops, passes, state words)
// consumed by the ODP cost model.
package optim

import "fmt"

// Kind enumerates the supported optimizer algorithms.
type Kind int

// Supported optimizers.
const (
	SGD Kind = iota
	Momentum
	Nesterov
	Adagrad
	RMSProp
	Adam
	AdamW
	LAMB
	// AMSGrad is Adam with a maintained maximum of the second moment
	// (Reddi et al.): a third state word per parameter.
	AMSGrad
	// AdamA is Adam Accumulation (Zhang et al.): micro-batch gradients are
	// folded directly into the first moment instead of being buffered, so a
	// gradient-accumulation step of N micro-batches keeps Adam's two state
	// words while the second moment tracks the accumulated first moment.
	AdamA
)

// Kinds lists every supported optimizer, in presentation order.
func Kinds() []Kind {
	return []Kind{SGD, Momentum, Nesterov, Adagrad, RMSProp, Adam, AdamW, LAMB, AMSGrad, AdamA}
}

// String returns the conventional name.
func (k Kind) String() string {
	switch k {
	case SGD:
		return "SGD"
	case Momentum:
		return "Momentum"
	case Nesterov:
		return "Nesterov"
	case Adagrad:
		return "Adagrad"
	case RMSProp:
		return "RMSProp"
	case Adam:
		return "Adam"
	case AdamW:
		return "AdamW"
	case LAMB:
		return "LAMB"
	case AMSGrad:
		return "AMSGrad"
	case AdamA:
		return "AdamA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Hyper carries the hyperparameters shared across optimizers. Zero fields
// are replaced by the conventional defaults in New.
type Hyper struct {
	LR          float64 // learning rate
	MomentumMu  float64 // momentum coefficient (Momentum/Nesterov)
	Beta1       float64 // first-moment decay (Adam family)
	Beta2       float64 // second-moment decay (Adam family)
	Rho         float64 // RMSProp decay
	Eps         float64 // numerical floor
	WeightDecay float64 // decoupled weight decay (AdamW/LAMB); coupled elsewhere
}

// DefaultHyper returns the conventional defaults (lr=1e-3, betas 0.9/0.999).
func DefaultHyper() Hyper {
	return Hyper{
		LR:         1e-3,
		MomentumMu: 0.9,
		Beta1:      0.9,
		Beta2:      0.999,
		Rho:        0.99,
		Eps:        1e-8,
	}
}

func (h Hyper) withDefaults() Hyper {
	d := DefaultHyper()
	if h.LR == 0 {
		h.LR = d.LR
	}
	if h.MomentumMu == 0 {
		h.MomentumMu = d.MomentumMu
	}
	if h.Beta1 == 0 {
		h.Beta1 = d.Beta1
	}
	if h.Beta2 == 0 {
		h.Beta2 = d.Beta2
	}
	if h.Rho == 0 {
		h.Rho = d.Rho
	}
	if h.Eps == 0 {
		h.Eps = d.Eps
	}
	return h
}

// Optimizer is a stateful parameter updater. Implementations allocate their
// state lazily on the first Step, sized to the parameter slice, and advance
// an internal timestep used for bias correction.
type Optimizer interface {
	// Name returns the algorithm name.
	Name() string
	// Kind returns the algorithm enum value.
	Kind() Kind
	// Step applies one update of w in place given gradient g.
	// len(g) must equal len(w); the slice length must not change between
	// steps.
	Step(w, g []float32)
	// Steps returns how many updates have been applied.
	Steps() int
}

// New constructs an optimizer of the given kind. Unset hyperparameters take
// conventional defaults.
func New(kind Kind, hp Hyper) Optimizer {
	hp = hp.withDefaults()
	switch kind {
	case SGD:
		return &sgd{hp: hp}
	case Momentum:
		return &momentum{hp: hp, nesterov: false}
	case Nesterov:
		return &momentum{hp: hp, nesterov: true}
	case Adagrad:
		return &adagrad{hp: hp}
	case RMSProp:
		return &rmsprop{hp: hp}
	case Adam:
		return &adam{hp: hp, decoupledWD: false}
	case AdamW:
		return &adam{hp: hp, decoupledWD: true}
	case LAMB:
		return &lamb{hp: hp}
	case AMSGrad:
		return &amsgrad{hp: hp}
	case AdamA:
		return &adamA{hp: hp}
	default:
		panic(fmt.Sprintf("optim: unknown kind %d", int(kind)))
	}
}

func checkLens(w, g []float32) {
	if len(w) != len(g) {
		panic(fmt.Sprintf("optim: len(w)=%d != len(g)=%d", len(w), len(g)))
	}
}
