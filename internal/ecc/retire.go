package ecc

import "fmt"

// Block retirement. Read-retry recovers uncorrectable pages, but a block
// that keeps needing retries has degraded media: past a cumulative retry
// budget the controller retires it rather than gamble on the next read
// being recoverable at all. The tracker is a per-block state machine:
//
//	Healthy --(any retries)--> Probation --(budget exhausted)--> Retired
//	Probation --(ProbationReads consecutive clean reads)--> Healthy
//
// Retired is absorbing: media wear does not heal, so once a block crosses
// the budget it stays retired even across erase cycles. Returning to
// Healthy from Probation resets the retry tally — occasional transient
// retries (read disturb before a scrub) should not accumulate forever.

// BlockHealth is the tracker's verdict for one block.
type BlockHealth uint8

// Block health states.
const (
	BlockHealthy   BlockHealth = iota // no outstanding concern
	BlockProbation                    // recent retries; clean-read streak running
	BlockRetired                      // retry budget exhausted; remove from service
)

// String names the health state.
func (h BlockHealth) String() string {
	switch h {
	case BlockHealthy:
		return "healthy"
	case BlockProbation:
		return "probation"
	case BlockRetired:
		return "retired"
	}
	return fmt.Sprintf("BlockHealth(%d)", uint8(h))
}

// RetirePolicy configures block retirement. The zero value disables it.
type RetirePolicy struct {
	// RetryBudget is the cumulative read-retry count at which a block is
	// retired. The budget counts retries since the block was last Healthy;
	// a read whose retries reach the budget exactly retires the block.
	RetryBudget int
	// ProbationReads is the number of consecutive retry-free reads that
	// return a Probation block to Healthy (and reset its retry tally).
	// Zero means probation never clears.
	ProbationReads int
}

// Enabled reports whether the policy does anything.
func (p RetirePolicy) Enabled() bool { return p.RetryBudget > 0 }

// Validate checks the policy.
func (p RetirePolicy) Validate() error {
	if p.RetryBudget < 0 || p.ProbationReads < 0 {
		return fmt.Errorf("ecc: retire policy %+v: negative field", p)
	}
	return nil
}

type blockTrack struct {
	health  BlockHealth
	retries int // cumulative since last Healthy
	clean   int // consecutive clean reads while in Probation
}

// RetireTracker applies a RetirePolicy across blocks, materializing state
// lazily — blocks that never see a retry cost one map lookup per tracked
// read and no storage.
type RetireTracker struct {
	policy RetirePolicy
	blocks map[int]*blockTrack
}

// NewRetireTracker builds a tracker; the policy must be enabled and valid.
func NewRetireTracker(p RetirePolicy) *RetireTracker {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if !p.Enabled() {
		panic("ecc: retire tracker built from disabled policy")
	}
	return &RetireTracker{policy: p, blocks: map[int]*blockTrack{}}
}

// OnRead records that a read of the given block converged after `retries`
// read-retry passes (0 = clean first read) and returns the block's health
// after the update.
func (t *RetireTracker) OnRead(block, retries int) BlockHealth {
	if retries < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("ecc: negative retries %d", retries))
	}
	b := t.blocks[block]
	if b == nil {
		if retries == 0 {
			return BlockHealthy
		}
		// A block's first retry allocates its tracking state: only reads
		// that needed retries get here.
		b = &blockTrack{} //simlint:allow hotalloc first retry on this block
		t.blocks[block] = b
	}
	if b.health == BlockRetired {
		return BlockRetired
	}
	if retries > 0 {
		b.retries += retries
		b.clean = 0
		if b.retries >= t.policy.RetryBudget {
			b.health = BlockRetired
		} else {
			b.health = BlockProbation
		}
		return b.health
	}
	if b.health == BlockProbation && t.policy.ProbationReads > 0 {
		b.clean++
		if b.clean >= t.policy.ProbationReads {
			b.health = BlockHealthy
			b.retries = 0
			b.clean = 0
		}
	}
	return b.health
}
