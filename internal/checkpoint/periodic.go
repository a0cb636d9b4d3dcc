package checkpoint

import (
	"fmt"
	"sort"

	"github.com/edgeml/edgetrain/schedule"
)

// Additional single-level baselines used by the ablation benchmarks: periodic
// ("checkpoint every k-th state") and logarithmic ("checkpoint states at
// power-of-two distances from the end") placement. Both are common ad-hoc
// schemes in deep-learning codebases; comparing them against Revolve
// quantifies how much the optimal placement matters on an Edge node.

// PlanPeriodic builds a schedule that snapshots every k-th state during the
// forward sweep and, during the backward sweep, recomputes the states inside
// each period from its snapshot (storing them temporarily, like
// checkpoint_sequential does within a segment).
func PlanPeriodic(l, k int) (schedule.Schedule, error) {
	if err := ValidateArgs(l, k); err != nil {
		return schedule.Schedule{}, err
	}
	if k < 1 {
		return schedule.Schedule{}, fmt.Errorf("checkpoint: periodic interval must be at least 1, got %d", k)
	}
	segments := (l + k - 1) / k
	return PlanSequential(l, segments)
}

// PeriodicMemorySlots returns the retained-activation count of the periodic
// scheme with interval k on a chain of l steps (boundary checkpoints plus the
// final period stored in full), mirroring SequentialMemorySlots.
func PeriodicMemorySlots(l, k int) int {
	if l <= 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	segments := (l + k - 1) / k
	return SequentialMemorySlots(l, segments)
}

// LogSpacedStates returns the state indices a logarithmic placement would
// retain for a chain of l steps: the states at distance 1, 2, 4, 8, ... from
// the end, plus the input. This scheme is popular because it needs only
// O(log l) memory, at the price of an O(l) recompute factor in the worst case.
func LogSpacedStates(l int) []int {
	if l <= 0 {
		return nil
	}
	seen := map[int]bool{0: true}
	states := []int{0}
	for d := 1; d < l; d *= 2 {
		s := l - d
		if s > 0 && !seen[s] {
			seen[s] = true
			states = append(states, s)
		}
	}
	return states
}

// LogSpacedMemorySlots returns the number of retained states of the
// logarithmic placement (excluding the always-present input).
func LogSpacedMemorySlots(l int) int {
	states := LogSpacedStates(l)
	if len(states) == 0 {
		return 0
	}
	return len(states) - 1
}

// LogSpacedForwards returns the forward-step executions of the logarithmic
// placement: the initial sweep plus, for every adjoint step, an advance from
// the nearest retained state at or below it. Retained states are not refreshed
// during the backward sweep (the scheme's usual, simple formulation).
func LogSpacedForwards(l int) int64 {
	if l <= 1 {
		return 0
	}
	states := LogSpacedStates(l)
	retained := make(map[int]bool, len(states))
	for _, s := range states {
		retained[s] = true
	}
	total := int64(l - 1) // initial sweep
	for step := l; step >= 1; step-- {
		need := step - 1
		if retained[need] {
			continue
		}
		// Advance from the nearest retained state below `need`.
		from := need
		for !retained[from] {
			from--
		}
		total += int64(need - from)
	}
	return total
}

// BaselineComparison summarises all implemented schemes at one configuration.
type BaselineComparison struct {
	Scheme      string
	Slots       int   // retained activations excluding the input
	Forwards    int64 // forward-step executions
	Rho         float64
	FeasibleFor bool // true when the scheme can be tuned to the given budget at all
}

// CompareBaselines evaluates store-all, Revolve, checkpoint_sequential,
// periodic and logarithmic checkpointing on a chain of l steps, each tuned to
// its minimum-memory configuration whose recompute factor stays at or below
// rho.
func CompareBaselines(l int, rho float64, m CostModel) []BaselineComparison {
	var out []BaselineComparison

	// Store-all.
	storeForwards := int64(l - 1)
	out = append(out, BaselineComparison{
		Scheme: "store-all", Slots: l - 1, Forwards: storeForwards,
		Rho: m.Rho(l, storeForwards), FeasibleFor: m.Rho(l, storeForwards) <= rho,
	})

	// Optimal Revolve.
	res := MinSlotsForRho(l, rho, m)
	out = append(out, BaselineComparison{
		Scheme: "revolve", Slots: res.Slots, Forwards: res.Forwards,
		Rho: m.Rho(l, res.Forwards), FeasibleFor: res.Feasible,
	})

	// checkpoint_sequential.
	seqSlots, seqSegments, seqOK := MinSequentialSlotsForRho(l, rho, m)
	seqForwards := SequentialForwards(l, seqSegments)
	out = append(out, BaselineComparison{
		Scheme: "sequential", Slots: seqSlots, Forwards: seqForwards,
		Rho: m.Rho(l, seqForwards), FeasibleFor: seqOK,
	})

	// Periodic: best interval within the budget.
	bestK, bestSlots := 0, l
	for k := 1; k <= l; k++ {
		segments := (l + k - 1) / k
		fw := SequentialForwards(l, segments)
		if m.Rho(l, fw) > rho+1e-12 {
			continue
		}
		if s := PeriodicMemorySlots(l, k); s < bestSlots {
			bestSlots, bestK = s, k
		}
	}
	if bestK == 0 {
		out = append(out, BaselineComparison{Scheme: "periodic", Slots: l, Forwards: storeForwards, Rho: m.Rho(l, storeForwards)})
	} else {
		segments := (l + bestK - 1) / bestK
		fw := SequentialForwards(l, segments)
		out = append(out, BaselineComparison{
			Scheme: "periodic", Slots: bestSlots, Forwards: fw, Rho: m.Rho(l, fw), FeasibleFor: true,
		})
	}

	// Logarithmic (fixed shape; feasibility depends on the budget).
	logFw := LogSpacedForwards(l)
	out = append(out, BaselineComparison{
		Scheme: "logarithmic", Slots: LogSpacedMemorySlots(l), Forwards: logFw,
		Rho: m.Rho(l, logFw), FeasibleFor: m.Rho(l, logFw) <= rho,
	})
	return out
}

// PlanLogSpaced builds an executable schedule for the logarithmic placement:
// the initial sweep snapshots the states at power-of-two distances from the
// end, and the backward sweep rebuilds every other state by advancing from
// the nearest retained state below it. Its traced Forwards equal
// LogSpacedForwards(l) and its peak slot usage equals LogSpacedMemorySlots(l).
func PlanLogSpaced(l int) (schedule.Schedule, error) {
	if err := ValidateArgs(l, 0); err != nil {
		return schedule.Schedule{}, err
	}
	states := LogSpacedStates(l)
	sort.Ints(states)
	p := newPlanner(l, max(len(states)-1, 0), "logspaced")

	// Forward sweep: snapshot each retained state as it is passed.
	for _, s := range states {
		if s == 0 {
			continue
		}
		p.advanceTo(s)
		p.snapshot(s)
	}

	// Backward sweep: before each adjoint, rebuild its input from the nearest
	// retained state at or below it. Retained states are never refreshed (the
	// scheme's usual, simple formulation).
	for step := l; step >= 1; step-- {
		need := step - 1
		if p.current != need {
			from := need
			for {
				if _, ok := p.slotOf[from]; ok {
					break
				}
				from--
			}
			p.restore(from)
			if from < need {
				p.advanceTo(need)
			}
		}
		p.emit(schedule.Action{Kind: schedule.ActionBackprop})
	}
	return p.sched, nil
}
