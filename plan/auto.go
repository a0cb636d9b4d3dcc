package plan

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/schedule"
)

// The "auto" strategy answers the deployment question directly: given how
// much RAM the device has, which checkpointing strategy — and with which
// tunables — trains this chain fastest while fitting the budget? It evaluates
// store-all, Revolve and the two-level flash-spilling scheme with the
// existing cost model, pricing each two-level candidate by the trace of the
// schedule it would run (CostModel.TraceTime), and returns the cheapest
// fitting plan, so callers can hand the planner a device capacity
// (device.Device.MemoryBytes) instead of hand-picking slot counts.
//
// The budget covers the resident training state under the homogeneous-chain
// model: ChainSpec.WeightBytes plus one ChainSpec.ActivationBytes for every
// simultaneously retained state — the chain input, the RAM-tier checkpoints,
// and the live working state the executor carries between them. Disk-tier
// checkpoints of a two-level plan cost flash I/O time instead of RAM.

// AutoChoice reports which strategy the "auto" planner selected and the
// predicted footprint and cost of the selection.
type AutoChoice struct {
	// Strategy is the selected strategy: "storeall", "revolve" or
	// "twolevel".
	Strategy string
	// Slots is the checkpoint-slot budget ("revolve") or RAM-tier slot
	// budget ("twolevel") of the selection; zero for "storeall".
	Slots int
	// DiskSlots is the flash-tier checkpoint count ("twolevel" only).
	DiskSlots int
	// Budget is the byte budget the selection was made against (after
	// defaulting).
	Budget int64
	// PeakRAMStates and PeakRAMBytes are the predicted resident peak:
	// retained states including the chain input and the working state.
	PeakRAMStates int
	PeakRAMBytes  int64
	// DiskBytes is the predicted flash-tier footprint ("twolevel" only).
	DiskBytes int64
	// Time is the predicted time to solution in forward-step units,
	// including flash I/O; Rho is Time relative to the store-all baseline.
	Time float64
	Rho  float64
}

// String summarises the choice.
func (c AutoChoice) String() string {
	switch c.Strategy {
	case "twolevel":
		return fmt.Sprintf("auto: twolevel(ram=%d, disk=%d), peak %d states / %.1f MB RAM + %.1f MB flash, rho=%.3f",
			c.Slots, c.DiskSlots, c.PeakRAMStates, float64(c.PeakRAMBytes)/1e6, float64(c.DiskBytes)/1e6, c.Rho)
	case "revolve":
		return fmt.Sprintf("auto: revolve(%d), peak %d states / %.1f MB RAM, rho=%.3f",
			c.Slots, c.PeakRAMStates, float64(c.PeakRAMBytes)/1e6, c.Rho)
	default:
		return fmt.Sprintf("auto: %s, peak %d states / %.1f MB RAM, rho=%.3f",
			c.Strategy, c.PeakRAMStates, float64(c.PeakRAMBytes)/1e6, c.Rho)
	}
}

// AutoSelect runs the "auto" strategy's selection without building the
// schedule: it returns which strategy fits the memory budget at the lowest
// predicted time to solution. The budget defaults to the 2 GB Waggle-node
// capacity (memmodel.EdgeDeviceMemoryBytes) when Options.MemoryBudget is zero.
func AutoSelect(spec ChainSpec, o Options) (AutoChoice, error) {
	l := spec.Length
	m := checkpoint.DefaultCostModel
	budget := o.MemoryBudget
	if budget <= 0 {
		budget = memmodel.EdgeDeviceMemoryBytes
	}
	act := spec.ActivationBytes
	baseline := AutoChoice{
		Strategy:      "storeall",
		Budget:        budget,
		PeakRAMStates: l + 1,
		// With unknown state sizes this is the weights alone — a lower
		// bound; the paths below refine it once act is known.
		PeakRAMBytes: spec.WeightBytes,
		Time:         m.BaselineTime(l),
		Rho:          1,
	}
	if l <= 1 {
		// A trivial chain retains nothing beyond its input and output, but
		// the fitting contract still holds: if even that exceeds the budget
		// there is nothing checkpointing can do.
		baseline.PeakRAMBytes = spec.WeightBytes + int64(l+1)*act
		if baseline.PeakRAMBytes > budget {
			return AutoChoice{}, fmt.Errorf(
				"plan: auto: no strategy fits budget %d bytes (a length-%d chain needs %d resident)",
				budget, l, baseline.PeakRAMBytes)
		}
		return baseline, nil
	}
	if act <= 0 {
		// Without per-state sizes the budget cannot constrain anything; fall
		// back to the no-recompute plan rather than guessing.
		if o.MemoryBudget > 0 {
			return AutoChoice{}, fmt.Errorf("plan: auto needs ChainSpec.ActivationBytes to enforce a memory budget")
		}
		return baseline, nil
	}

	// How many states fit alongside the weights?
	maxStates := (budget - spec.WeightBytes) / act
	ramBytes := func(states int) int64 { return spec.WeightBytes + int64(states)*act }

	// Store-all does no advance and no flash I/O, the least any schedule
	// does: when it fits, nothing else can win.
	baseline.PeakRAMBytes = ramBytes(baseline.PeakRAMStates)
	if baseline.PeakRAMBytes <= budget {
		return baseline, nil
	}

	// Revolve and the two-level scheme keep the chain input, the working
	// state and their RAM checkpoints resident: slots + 2 states.
	slots := int(maxStates) - 2
	if slots < 1 {
		return AutoChoice{}, fmt.Errorf(
			"plan: auto: no strategy fits budget %d bytes (minimal-Revolve needs %d: weights %d + 3 states of %d)",
			budget, ramBytes(3), spec.WeightBytes, act)
	}
	best := AutoChoice{
		Strategy:      "revolve",
		Slots:         slots,
		Budget:        budget,
		PeakRAMStates: slots + 2,
		PeakRAMBytes:  ramBytes(slots + 2),
		Time:          m.Time(l, checkpoint.MinForwards(l, slots)),
	}
	// Two-level: the same RAM residency, with d evenly spaced flash
	// checkpoints buying recompute back at I/O cost. Each count is priced
	// by the trace of the schedule it would run; a tie stays with Revolve,
	// which does no flash I/O.
	for d := 1; d < l; d++ {
		s, err := checkpoint.PlanTwoLevel(l, d, slots)
		if err != nil {
			return AutoChoice{}, err
		}
		tr, err := schedule.Run(s)
		if err != nil {
			return AutoChoice{}, fmt.Errorf("plan: auto: twolevel(%d) with %d RAM slots: %w", d, slots, err)
		}
		if t := m.TraceTime(l, tr); t < best.Time {
			best.Strategy, best.DiskSlots, best.Time = "twolevel", d, t
			best.DiskBytes = int64(tr.PeakDiskSlots) * act
		}
	}
	best.Rho = best.Time / m.BaselineTime(l)
	return best, nil
}

// planAuto builds the selected strategy's schedule and prefixes its policy
// label so executions report which one "auto" selected, e.g.
// "auto:twolevel(4)".
func planAuto(spec ChainSpec, o Options) (schedule.Schedule, error) {
	choice, err := AutoSelect(spec, o)
	if err != nil {
		return schedule.Schedule{}, err
	}
	var s schedule.Schedule
	switch choice.Strategy {
	case "storeall":
		s, err = checkpoint.PlanStoreAll(spec.Length)
	case "revolve":
		s, err = checkpoint.PlanRevolve(spec.Length, choice.Slots)
	case "twolevel":
		s, err = checkpoint.PlanTwoLevel(spec.Length, choice.DiskSlots, choice.Slots)
	default:
		err = fmt.Errorf("plan: auto selected unknown strategy %q", choice.Strategy)
	}
	if err != nil {
		return schedule.Schedule{}, err
	}
	s.Policy = "auto:" + s.Policy
	return s, nil
}
