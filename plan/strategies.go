package plan

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/schedule"
)

// strategies is the one table Build, Strategies and Describe read: every
// strategy's description next to the function that adapts the algorithm layer
// in internal/checkpoint to it. Kept sorted by name.
var strategies = []struct {
	info StrategyInfo
	plan func(spec ChainSpec, o Options) (schedule.Schedule, error)
}{
	{StrategyInfo{
		Name:        "auto",
		Description: "budget-aware: cheapest of storeall/revolve/twolevel whose resident footprint fits a RAM byte budget",
		Options:     []string{"budget", "device", "state-bytes", "weight-bytes"},
	}, planAuto},
	{StrategyInfo{
		Name:        "revolve",
		Description: "optimal (binomial/Revolve) checkpointing: minimum forward work for a slot budget",
		Options:     []string{"slots", "rho"},
	}, planRevolve},
	{StrategyInfo{
		Name:        "sequential",
		Description: "PyTorch checkpoint_sequential: uniform segments, last segment stored in full",
		Options:     []string{"segments", "rho"},
	}, planSequential},
	{StrategyInfo{
		Name:        "storeall",
		Description: "no recomputation: one forward sweep storing every state, then the backward sweep",
	}, func(spec ChainSpec, o Options) (schedule.Schedule, error) {
		return checkpoint.PlanStoreAll(spec.Length)
	}},
	{StrategyInfo{
		Name:        "twolevel",
		Description: "disk-revolve style: evenly spaced flash checkpoints, optimal in-RAM schedule per segment",
		Options:     []string{"slots", "disk-slots"},
	}, planTwoLevel},
}

func planRevolve(spec ChainSpec, o Options) (schedule.Schedule, error) {
	slots := o.Slots
	if slots <= 0 && o.Rho > 0 {
		slots = checkpoint.MinSlotsForRho(spec.Length, o.Rho, checkpoint.DefaultCostModel).Slots
	}
	if slots <= 0 && spec.Length > 1 {
		return schedule.Schedule{}, fmt.Errorf("plan: revolve needs Slots or Rho")
	}
	return checkpoint.PlanRevolve(spec.Length, slots)
}

func planSequential(spec ChainSpec, o Options) (schedule.Schedule, error) {
	segments := o.Segments
	if segments <= 0 && o.Rho > 0 {
		_, s, ok := checkpoint.MinSequentialSlotsForRho(spec.Length, o.Rho, checkpoint.DefaultCostModel)
		if !ok {
			return schedule.Schedule{}, fmt.Errorf("plan: sequential cannot meet rho<=%.3f for length %d", o.Rho, spec.Length)
		}
		segments = s
	}
	if segments <= 0 && spec.Length <= 1 {
		segments = 1 // a trivial chain needs no tunable
	}
	if segments <= 0 {
		return schedule.Schedule{}, fmt.Errorf("plan: sequential needs Segments or Rho")
	}
	return checkpoint.PlanSequential(spec.Length, segments)
}

func planTwoLevel(spec ChainSpec, o Options) (schedule.Schedule, error) {
	if spec.Length > 1 && (o.Slots <= 0 || o.DiskSlots <= 0) {
		return schedule.Schedule{}, fmt.Errorf("plan: twolevel needs Slots (RAM tier) and DiskSlots (flash tier)")
	}
	return checkpoint.PlanTwoLevel(spec.Length, o.DiskSlots, o.Slots)
}
