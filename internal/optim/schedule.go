package optim

import (
	"fmt"
	"math"
)

// Schedule maps a step index to a learning-rate multiplier in [0, 1].
// Training loops multiply the base LR by LRAt(step) each step — the
// conventional warmup + decay recipes of the large-model papers the
// evaluation models come from.
type Schedule interface {
	// LRAt returns the multiplier for a 0-based step index.
	LRAt(step int) float64
}

// WarmupCosine is the GPT-style recipe: linear warmup from 0 over
// WarmupSteps, then cosine decay to MinFactor at TotalSteps, holding
// MinFactor afterwards.
type WarmupCosine struct {
	WarmupSteps int
	TotalSteps  int
	MinFactor   float64
}

// NewWarmupCosine validates and builds the schedule.
func NewWarmupCosine(warmup, total int, minFactor float64) (*WarmupCosine, error) {
	if warmup < 0 || total <= warmup || minFactor < 0 || minFactor > 1 {
		return nil, fmt.Errorf("optim: warmup cosine (%d, %d, %v)", warmup, total, minFactor)
	}
	return &WarmupCosine{WarmupSteps: warmup, TotalSteps: total, MinFactor: minFactor}, nil
}

// LRAt implements Schedule.
func (s *WarmupCosine) LRAt(step int) float64 {
	switch {
	case step < s.WarmupSteps:
		return float64(step+1) / float64(s.WarmupSteps)
	case step >= s.TotalSteps:
		return s.MinFactor
	default:
		progress := float64(step-s.WarmupSteps) / float64(s.TotalSteps-s.WarmupSteps)
		cos := 0.5 * (1 + math.Cos(math.Pi*progress))
		return s.MinFactor + (1-s.MinFactor)*cos
	}
}

// Scheduled wraps an Optimizer so Step applies the schedule's multiplier
// by scaling the gradient's effect: it adjusts the wrapped optimizer's
// contribution through a scaled copy of the base learning rate. Because
// the Optimizer interface fixes hyperparameters at construction, Scheduled
// rebuilds the effective step by scaling gradients for SGD-like methods is
// incorrect for adaptive ones — so instead it maintains its own instance
// per multiplier granularity. In practice schedules change slowly; the
// wrapper quantises the multiplier to QuantSteps levels and scales the
// *update* by interpolating weights before/after. The simple, exact
// approach used here: apply the wrapped optimizer to a scratch copy and
// blend w ← w + factor·(w' − w). This is exact for any optimizer because
// the state advance uses the unscaled gradients, matching framework
// semantics where the schedule scales only the applied step.
type Scheduled struct {
	Inner    Optimizer
	Schedule Schedule
	scratch  []float32
}

// NewScheduled wraps an optimizer with a schedule.
func NewScheduled(inner Optimizer, s Schedule) *Scheduled {
	return &Scheduled{Inner: inner, Schedule: s}
}

// Step applies one scheduled update.
func (s *Scheduled) Step(w, g []float32) {
	factor := s.Schedule.LRAt(s.Inner.Steps())
	if factor >= 1 {
		s.Inner.Step(w, g)
		return
	}
	if cap(s.scratch) < len(w) {
		s.scratch = make([]float32, len(w))
	}
	scr := s.scratch[:len(w)]
	copy(scr, w)
	s.Inner.Step(scr, g)
	f := float32(factor)
	for i := range w {
		w[i] += f * (scr[i] - w[i])
	}
}
