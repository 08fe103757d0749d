package ecc

import (
	"testing"
)

// readOp is one observed read: retry count and the verdict it must yield.
type readOp struct {
	block   int
	retries int
	want    BlockHealth
}

// TestRetireBoundaries pins the exact retry counts at which each
// transition happens — the off-by-one surface of the state machine.
func TestRetireBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		policy RetirePolicy
		ops    []readOp
	}{
		{
			name:   "clean reads stay healthy",
			policy: RetirePolicy{RetryBudget: 8, ProbationReads: 4},
			ops: []readOp{
				{0, 0, BlockHealthy},
				{0, 0, BlockHealthy},
			},
		},
		{
			name:   "retirement at exactly the budget",
			policy: RetirePolicy{RetryBudget: 8, ProbationReads: 4},
			ops: []readOp{
				{0, 3, BlockProbation}, // tally 3
				{0, 4, BlockProbation}, // tally 7 — one below budget
				{0, 1, BlockRetired},   // tally 8 == budget
			},
		},
		{
			name:   "single burst at budget retires immediately",
			policy: RetirePolicy{RetryBudget: 4, ProbationReads: 2},
			ops: []readOp{
				{5, 4, BlockRetired},
			},
		},
		{
			name:   "one below budget is probation, not retirement",
			policy: RetirePolicy{RetryBudget: 4, ProbationReads: 2},
			ops: []readOp{
				{5, 3, BlockProbation},
			},
		},
		{
			name:   "probation clears after exactly ProbationReads clean reads",
			policy: RetirePolicy{RetryBudget: 8, ProbationReads: 3},
			ops: []readOp{
				{1, 2, BlockProbation},
				{1, 0, BlockProbation}, // clean 1
				{1, 0, BlockProbation}, // clean 2
				{1, 0, BlockHealthy},   // clean 3 == ProbationReads
			},
		},
		{
			name:   "clearing probation resets the retry tally",
			policy: RetirePolicy{RetryBudget: 4, ProbationReads: 1},
			ops: []readOp{
				{2, 3, BlockProbation}, // tally 3
				{2, 0, BlockHealthy},   // streak complete, tally reset
				{2, 3, BlockProbation}, // tally 3 again — NOT 6, so not retired
				{2, 1, BlockRetired},   // tally 4 == budget
			},
		},
		{
			name:   "a retry interrupts the clean streak",
			policy: RetirePolicy{RetryBudget: 8, ProbationReads: 2},
			ops: []readOp{
				{3, 1, BlockProbation}, // tally 1
				{3, 0, BlockProbation}, // clean 1
				{3, 1, BlockProbation}, // tally 2, streak reset
				{3, 0, BlockProbation}, // clean 1 again
				{3, 0, BlockHealthy},   // clean 2
			},
		},
		{
			name:   "zero ProbationReads never clears",
			policy: RetirePolicy{RetryBudget: 8, ProbationReads: 0},
			ops: []readOp{
				{4, 1, BlockProbation},
				{4, 0, BlockProbation},
				{4, 0, BlockProbation},
			},
		},
		{
			name:   "retired is absorbing",
			policy: RetirePolicy{RetryBudget: 2, ProbationReads: 1},
			ops: []readOp{
				{6, 2, BlockRetired},
				{6, 0, BlockRetired},
				{6, 5, BlockRetired},
			},
		},
		{
			name:   "blocks are tracked independently",
			policy: RetirePolicy{RetryBudget: 2, ProbationReads: 1},
			ops: []readOp{
				{7, 2, BlockRetired},
				{8, 0, BlockHealthy},
				{8, 1, BlockProbation},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewRetireTracker(tc.policy)
			for i, op := range tc.ops {
				if got := tr.OnRead(op.block, op.retries); got != op.want {
					t.Fatalf("op %d (block %d, retries %d): health %v, want %v",
						i, op.block, op.retries, got, op.want)
				}
				if got := tr.Health(op.block); got != tc.ops[i].want {
					t.Fatalf("op %d: Health() %v disagrees with OnRead %v", i, got, op.want)
				}
			}
		})
	}
}

func TestRetirePolicyValidate(t *testing.T) {
	if (RetirePolicy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if !(RetirePolicy{RetryBudget: 1}).Enabled() {
		t.Fatal("budget 1 must enable")
	}
	if err := (RetirePolicy{RetryBudget: -1}).Validate(); err == nil {
		t.Fatal("negative budget must not validate")
	}
	if err := (RetirePolicy{ProbationReads: -1}).Validate(); err == nil {
		t.Fatal("negative probation must not validate")
	}
}

// FuzzRetireTracker drives the state machine with arbitrary read sequences
// against a straight-line reference model, checking every verdict and the
// structural invariants (absorbing retirement, tally below budget while in
// service).
func FuzzRetireTracker(f *testing.F) {
	f.Add(uint8(8), uint8(4), []byte{0x13, 0x14, 0x01, 0x00, 0x29})
	f.Add(uint8(1), uint8(0), []byte{0x01, 0x11, 0x21})
	f.Add(uint8(4), uint8(1), []byte{0x03, 0x00, 0x03, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, budget, probation uint8, ops []byte) {
		policy := RetirePolicy{RetryBudget: int(budget), ProbationReads: int(probation)}
		if !policy.Enabled() {
			return
		}
		tr := NewRetireTracker(policy)

		// Reference model: the rules re-stated independently.
		type ref struct {
			retries, clean int
			health         BlockHealth
		}
		model := map[int]*ref{}

		for _, op := range ops {
			// High nibble selects the block, low nibble the retry count —
			// small enough that budgets in [1,255] are reachable by
			// accumulation, while collisions between blocks stay common.
			block, retries := int(op>>4), int(op&0x0f)
			m := model[block]
			if m == nil {
				m = &ref{}
				model[block] = m
			}
			switch {
			case m.health == BlockRetired:
				// absorbing
			case retries > 0:
				m.retries += retries
				m.clean = 0
				if m.retries >= policy.RetryBudget {
					m.health = BlockRetired
				} else {
					m.health = BlockProbation
				}
			case m.health == BlockProbation && policy.ProbationReads > 0:
				m.clean++
				if m.clean >= policy.ProbationReads {
					*m = ref{}
				}
			}

			got := tr.OnRead(block, retries)
			if got != m.health {
				t.Fatalf("block %d after retries %d: health %v, model %v", block, retries, got, m.health)
			}
			if got != BlockRetired && tr.Retries(block) >= policy.RetryBudget {
				t.Fatalf("block %d in service with tally %d >= budget %d",
					block, tr.Retries(block), policy.RetryBudget)
			}
			if m.retries != tr.Retries(block) {
				t.Fatalf("block %d tally %d, model %d", block, tr.Retries(block), m.retries)
			}
		}

		retired := 0
		//simlint:allow maporder pure count — order cannot affect the result
		for _, m := range model {
			if m.health == BlockRetired {
				retired++
			}
		}
		if got := tr.RetiredCount(); got != retired {
			t.Fatalf("RetiredCount %d, model %d", got, retired)
		}
	})
}

// Health returns the current verdict for a block without recording a read.
func (t *RetireTracker) Health(block int) BlockHealth {
	if b := t.blocks[block]; b != nil {
		return b.health
	}
	return BlockHealthy
}

// Retries returns the cumulative retry tally counted against a block's
// budget.
func (t *RetireTracker) Retries(block int) int {
	if b := t.blocks[block]; b != nil {
		return b.retries
	}
	return 0
}

// RetiredCount returns how many blocks the tracker has retired.
func (t *RetireTracker) RetiredCount() int {
	n := 0
	//simlint:allow maporder pure count — order cannot affect the result
	for _, b := range t.blocks {
		if b.health == BlockRetired {
			n++
		}
	}
	return n
}
