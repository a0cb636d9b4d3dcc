package checkpoint

import (
	"fmt"

	"github.com/edgeml/edgetrain/schedule"
)

// Two-level checkpointing: the Waggle node has very little RAM but an SD
// card large enough for "about 100,000 images" (Section III). The natural
// extension of Revolve for such a node — and the subject of the paper's
// reference [1], disk-revolve — is to spill a few checkpoints to flash and
// run the optimal in-memory schedule inside each flash-to-flash segment.
//
// This file provides the planner for that scheme: the chain is cut into d+1
// segments by d evenly spaced flash checkpoints written during the initial
// sweep; segments are then reversed from last to first, each with the optimal
// (Revolve) in-RAM schedule using the RAM slot budget. A plan is priced by
// its trace (CostModel.TraceTime), which counts every flash read the
// executor makes.

// PlanTwoLevel builds an executable two-level schedule: d evenly spaced
// boundary checkpoints are written during the initial sweep (the flash tier),
// and each of the resulting d+1 segments is then reversed, last to first,
// with the optimal (Revolve) schedule under the RAM slot budget. In the
// emitted schedule the boundary snapshots are annotated with TierDisk (slot
// indices are recycled between tiers, so the tier rides on each Snapshot
// action rather than on the slot); a tier-aware store spills exactly those
// states to flash, while storage-agnostic consumers execute the schedule
// entirely in RAM.
func PlanTwoLevel(l, diskCheckpoints, ramSlots int) (schedule.Schedule, error) {
	if err := ValidateArgs(l, ramSlots); err != nil {
		return schedule.Schedule{}, err
	}
	if diskCheckpoints < 0 {
		return schedule.Schedule{}, fmt.Errorf("checkpoint: negative flash checkpoint count %d", diskCheckpoints)
	}
	if diskCheckpoints > l-1 {
		diskCheckpoints = max(l-1, 0)
	}
	segments := diskCheckpoints + 1
	base := l / segments
	extra := l % segments
	starts := make([]int, segments+1)
	for k := 1; k <= segments; k++ {
		starts[k] = starts[k-1] + base
		if k-1 < extra {
			starts[k]++
		}
	}

	p := newPlanner(l, diskCheckpoints+ramSlots, fmt.Sprintf("twolevel(%d)", diskCheckpoints))

	// Initial sweep: write each internal segment boundary to its flash slot.
	// The snapshots are annotated TierDisk so a tier-aware store spills them;
	// storage-agnostic consumers execute them as ordinary RAM slots.
	for k := 1; k < segments; k++ {
		p.advanceTo(starts[k])
		p.snapshotTier(starts[k], schedule.TierDisk)
	}

	// Reverse segments from last to first, each with the optimal in-RAM
	// schedule; release a segment's boundary once it has been reversed.
	for k := segments - 1; k >= 0; k-- {
		segLen := starts[k+1] - starts[k]
		if segLen == 0 {
			continue
		}
		p.reverse(starts[k], segLen, ramSlots)
		if starts[k] != 0 {
			p.free(starts[k])
		}
	}
	return p.sched, nil
}
