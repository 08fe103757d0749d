// Package dnn describes the DNN training workloads: parameter counts,
// layer structure, and per-step FLOP estimates for the models the
// reproduction evaluates on. Only the quantities the optimizer-offload
// problem depends on are modelled — parameter bytes, gradient bytes, and
// forward/backward compute — because the optimizer step itself is
// element-wise and architecture-agnostic.
package dnn

import "fmt"

// Arch tags the broad architecture family, which picks the FLOP formula.
type Arch int

// Architecture families.
const (
	Transformer Arch = iota
	CNN
	// Recommender models (DLRM-style): compute is a small MLP; parameters
	// are dominated by embedding tables that each step touches sparsely.
	Recommender
)

// String names the family.
func (a Arch) String() string {
	switch a {
	case Transformer:
		return "Transformer"
	case CNN:
		return "CNN"
	case Recommender:
		return "Recommender"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Model describes one training workload.
type Model struct {
	Name   string
	Arch   Arch
	Params int64 // trainable parameters
	Layers int   // repeated blocks (for LAMB layer bounds)
	Hidden int   // hidden width (transformers)
	SeqLen int   // tokens per sample (transformers)
	// FlopsPerSample is the forward FLOPs per sample for CNN and
	// Recommender models, where the 2·params·tokens rule does not apply.
	FlopsPerSample float64

	// SparseFraction is the fraction of parameters a training step
	// actually touches (embedding-table models); 0 means dense (1.0).
	SparseFraction float64
}

// Validate reports the first structural problem.
func (m Model) Validate() error {
	if m.Name == "" || m.Params <= 0 || m.Layers <= 0 {
		return fmt.Errorf("dnn: model %+v", m)
	}
	if m.Arch == Transformer && (m.SeqLen <= 0 || m.Hidden <= 0) {
		return fmt.Errorf("dnn: transformer %q missing seq/hidden", m.Name)
	}
	if (m.Arch == CNN || m.Arch == Recommender) && m.FlopsPerSample <= 0 {
		return fmt.Errorf("dnn: %s %q missing flops", m.Arch, m.Name)
	}
	if m.SparseFraction < 0 || m.SparseFraction > 1 {
		return fmt.Errorf("dnn: %q sparse fraction %v", m.Name, m.SparseFraction)
	}
	return nil
}

// UpdateFraction returns the fraction of parameters one step updates:
// SparseFraction when set, else 1 (dense).
func (m Model) UpdateFraction() float64 {
	if m.SparseFraction > 0 {
		return m.SparseFraction
	}
	return 1
}

// FwdFlopsPerSample estimates forward-pass FLOPs for one sample: the
// standard 2·params·tokens for transformers, the measured constant for
// CNNs.
func (m Model) FwdFlopsPerSample() float64 {
	switch m.Arch {
	case Transformer:
		return 2 * float64(m.Params) * float64(m.SeqLen)
	case CNN, Recommender:
		return m.FlopsPerSample
	default:
		panic("dnn: unknown arch")
	}
}

// StepFlops estimates forward+backward FLOPs for a batch: backward costs
// twice the forward (3× total).
func (m Model) StepFlops(batch int) float64 {
	return 3 * m.FwdFlopsPerSample() * float64(batch)
}

// BatchTokens returns the number of tokens processed per step (samples for
// CNNs).
func (m Model) BatchTokens(batch int) int64 {
	if m.Arch == Transformer {
		return int64(batch) * int64(m.SeqLen)
	}
	return int64(batch)
}

// String renders the model name and size.
func (m Model) String() string {
	return fmt.Sprintf("%s (%s params)", m.Name, FormatCount(m.Params))
}

// SI thresholds for parameter-count formatting (dimensionless counts,
// not bytes — so named numbers rather than units.Bytes).
const (
	trillion = 1e12
	billion  = 1e9
	million  = 1e6
	thousand = 1e3
)

// FormatCount renders a parameter count as 340M / 13B style text.
func FormatCount(n int64) string {
	switch {
	case n >= trillion:
		return fmt.Sprintf("%.1fT", float64(n)/trillion)
	case n >= billion:
		return fmt.Sprintf("%.1fB", float64(n)/billion)
	case n >= million:
		return fmt.Sprintf("%.0fM", float64(n)/million)
	case n >= thousand:
		return fmt.Sprintf("%.0fK", float64(n)/thousand)
	default:
		return fmt.Sprintf("%d", n)
	}
}
