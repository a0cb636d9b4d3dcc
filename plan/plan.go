// Package plan is the public planning API of the edgetrain library: every
// checkpointing planner selected by name from one static table, with its
// tunables in one Options struct.
//
//	sched, err := plan.Build("revolve", plan.ChainSpec{Length: 152}, plan.Options{Slots: 8})
//
// The strategies — "revolve", "sequential", "storeall", "twolevel" and the
// budget-aware "auto" — are implemented by the algorithm layer in
// internal/checkpoint; Strategies and Describe list them.
// Every strategy returns a schedule.Schedule, the type the chain executor and
// the command-line tools consume; use schedule.Run (or Validate here) to check
// a plan and obtain its cost trace.
package plan

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/schedule"
)

// ChainSpec describes the chain a schedule is planned for. Length is the
// number of steps; the memory fields are optional context some strategies or
// callers use for capacity reasoning and may be left zero. It is the
// algorithm layer's type, so the planners and the paper's memory model
// share one description.
type ChainSpec = checkpoint.ChainSpec

// StrategyInfo describes a strategy for discovery and help output.
type StrategyInfo struct {
	// Name is the name Build selects the strategy by, e.g. "revolve".
	Name string
	// Description is a one-line summary of the placement policy.
	Description string
	// Options lists the strategy's tunables by the names of the revolveplan
	// flags that set them (for usage text).
	Options []string
}

// Options collects the tunables shared by the built-in strategies. Strategies
// read the fields they understand and ignore the rest; the zero value of a
// field means "not set".
type Options struct {
	// Slots is the checkpoint-slot budget ("revolve"; the RAM tier of
	// "twolevel").
	Slots int
	// Segments is the uniform segment count ("sequential").
	Segments int
	// DiskSlots is the flash-tier checkpoint count ("twolevel").
	DiskSlots int
	// Rho is a recompute-factor budget; strategies that support it derive
	// their memory tunable (slots or segments) as the minimum meeting it.
	Rho float64
	// MemoryBudget is the RAM byte budget for budget-aware strategies
	// ("auto"): it covers the whole resident training state, weights
	// (ChainSpec.WeightBytes) plus every simultaneously retained activation
	// state. Zero selects the default: the 2 GB Waggle-node capacity.
	MemoryBudget int64
}

// Build looks the strategy up by name and plans a schedule for the chain
// described by spec. Strategies return an error for option combinations they
// cannot satisfy (e.g. "revolve" with neither a slot budget nor a recompute
// budget); the error for an unknown name lists the known ones.
func Build(name string, spec ChainSpec, o Options) (schedule.Schedule, error) {
	for _, s := range strategies {
		if s.info.Name != name {
			continue
		}
		if spec.Length < 0 {
			return schedule.Schedule{}, fmt.Errorf("plan: negative chain length %d", spec.Length)
		}
		return s.plan(spec, o)
	}
	return schedule.Schedule{}, fmt.Errorf("plan: unknown strategy %q (have: %v)", name, Strategies())
}

// Validate plans like Build and additionally runs the schedule through the
// validating trace simulator, returning the schedule together with its cost
// trace.
func Validate(name string, spec ChainSpec, o Options) (schedule.Schedule, *schedule.Trace, error) {
	s, err := Build(name, spec, o)
	if err != nil {
		return schedule.Schedule{}, nil, err
	}
	tr, err := schedule.Run(s)
	if err != nil {
		return schedule.Schedule{}, nil, fmt.Errorf("plan: strategy %q produced an invalid schedule: %w", name, err)
	}
	return s, tr, nil
}

// Strategies returns the names of all strategies, sorted.
func Strategies() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.info.Name
	}
	return names
}

// Describe returns the StrategyInfo of every strategy, sorted by name. It
// backs the -list output of the command-line tools.
func Describe() []StrategyInfo {
	infos := make([]StrategyInfo, len(strategies))
	for i, s := range strategies {
		infos[i] = s.info
	}
	return infos
}
