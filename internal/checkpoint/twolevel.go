package checkpoint

import (
	"fmt"
	"math"

	"github.com/edgeml/edgetrain/schedule"
)

// Two-level checkpointing: the Waggle node has very little RAM but an SD
// card large enough for "about 100,000 images" (Section III). The natural
// extension of Revolve for such a node — and the subject of the paper's
// reference [1], disk-revolve — is to spill a few checkpoints to flash and
// run the optimal in-memory schedule inside each flash-to-flash segment.
//
// This file provides the cost model and planner for that scheme: the chain is
// cut into d+1 segments by d evenly spaced flash checkpoints written during
// the initial sweep; segments are then reversed from last to first, each with
// the optimal (Revolve) in-RAM schedule using the RAM slot budget.

// TwoLevelConfig describes the storage hierarchy.
type TwoLevelConfig struct {
	// RAMSlots is the number of in-memory checkpoint slots.
	RAMSlots int
	// WriteCost and ReadCost are the costs of writing/reading one state to or
	// from flash, expressed in forward-step units.
	WriteCost float64
	ReadCost  float64
}

// TwoLevelCost is the cost breakdown of a two-level plan.
type TwoLevelCost struct {
	DiskCheckpoints int
	Forwards        int64   // forward-step executions (sweep + in-segment recomputation)
	DiskWrites      int     // states written to flash
	DiskReads       int     // states read back from flash
	IOTime          float64 // write/read cost in forward-step units
	PeakRAMStates   int     // RAM states retained at any time (checkpoints + input of the active segment)
}

// TotalTime returns the time-to-solution of the plan in forward-step units
// under the given cost model (l backward steps at BackwardRatio each, plus
// forwards, plus flash IO).
func (c TwoLevelCost) TotalTime(l int, m CostModel) float64 {
	return m.Time(l, c.Forwards) + c.IOTime
}

// Rho returns the recompute factor of the plan relative to the
// store-everything-in-RAM baseline.
func (c TwoLevelCost) Rho(l int, m CostModel) float64 {
	if l == 0 {
		return 1
	}
	return c.TotalTime(l, m) / m.BaselineTime(l)
}

// PlanTwoLevelCost computes the cost of reversing a chain of l steps with d
// evenly spaced flash checkpoints and the given RAM budget. d may be 0, in
// which case the plan degenerates to plain in-RAM Revolve.
func PlanTwoLevelCost(l, diskCheckpoints int, cfg TwoLevelConfig) (TwoLevelCost, error) {
	if l < 0 || diskCheckpoints < 0 {
		return TwoLevelCost{}, fmt.Errorf("checkpoint: negative arguments to PlanTwoLevelCost(%d, %d)", l, diskCheckpoints)
	}
	if cfg.RAMSlots < 0 {
		return TwoLevelCost{}, fmt.Errorf("checkpoint: negative RAM slot budget %d", cfg.RAMSlots)
	}
	if diskCheckpoints > l-1 {
		diskCheckpoints = max(l-1, 0)
	}
	cost := TwoLevelCost{DiskCheckpoints: diskCheckpoints}
	if l <= 1 {
		return cost, nil
	}

	// Segment boundaries: d flash checkpoints split the chain into d+1
	// segments of near-equal length.
	segments := diskCheckpoints + 1
	base := l / segments
	extra := l % segments
	segLens := make([]int, segments)
	for i := range segLens {
		segLens[i] = base
		if i < extra {
			segLens[i]++
		}
	}

	// Initial sweep: advance through the whole chain except the final step of
	// the final segment, writing each segment boundary to flash.
	cost.Forwards = int64(l - 1)
	cost.DiskWrites = diskCheckpoints

	// Reverse segments from last to first. The last segment's states beyond
	// the boundary are already in RAM reach (the sweep ended inside it), and
	// every earlier segment is reversed after reading its input boundary back
	// from flash. Within a segment the optimal in-RAM schedule is used, whose
	// recomputation cost is MinForwards(segLen, RAMSlots) minus the advances
	// already performed during the sweep (segLen-1 for the last segment, and
	// the in-segment sweep is re-done for earlier segments, which is exactly
	// what MinForwards counts).
	peak := 0
	for i := segments - 1; i >= 0; i-- {
		segLen := segLens[i]
		if segLen == 0 {
			continue
		}
		inner := MinForwards(segLen, cfg.RAMSlots)
		if i == segments-1 {
			// The sweep already advanced through this segment once; the
			// optimal in-RAM reversal of the segment costs `inner` total,
			// of which segLen-1 advances coincide with the sweep.
			cost.Forwards += inner - int64(segLen-1)
		} else {
			cost.DiskReads++
			cost.Forwards += inner
		}
		slots := cfg.RAMSlots
		if slots > segLen-1 {
			slots = segLen - 1
		}
		if slots+1 > peak {
			peak = slots + 1
		}
	}
	cost.PeakRAMStates = peak
	cost.IOTime = float64(cost.DiskWrites)*cfg.WriteCost + float64(cost.DiskReads)*cfg.ReadCost
	return cost, nil
}

// OptimalDiskCheckpoints searches the flash-checkpoint count that minimises
// total time for the given RAM budget, returning the best count and its cost.
// maxDisk bounds the search (the SD card is large, but each checkpoint costs
// IO time; the optimum is small).
func OptimalDiskCheckpoints(l int, cfg TwoLevelConfig, m CostModel, maxDisk int) (TwoLevelCost, error) {
	if maxDisk <= 0 {
		maxDisk = l - 1
	}
	if maxDisk > l-1 {
		maxDisk = l - 1
	}
	best := TwoLevelCost{}
	bestTime := math.Inf(1)
	for d := 0; d <= maxDisk; d++ {
		c, err := PlanTwoLevelCost(l, d, cfg)
		if err != nil {
			return TwoLevelCost{}, err
		}
		if t := c.TotalTime(l, m); t < bestTime {
			best, bestTime = c, t
		}
	}
	return best, nil
}

// TwoLevelMemory returns the peak RAM consumption of a two-level plan for a
// homogeneous chain: the weight state plus the retained in-RAM states. Flash
// checkpoints do not count against RAM.
func TwoLevelMemory(cs ChainSpec, cost TwoLevelCost) int64 {
	states := cost.PeakRAMStates
	if states < 1 {
		states = 1
	}
	return cs.WeightBytes + int64(states)*cs.ActivationBytes
}

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
