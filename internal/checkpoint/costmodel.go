package checkpoint

import (
	"math"

	"github.com/edgeml/edgetrain/schedule"
)

// CostModel converts schedule step counts into the recompute factor rho
// used throughout Section VI of the paper. rho is the ratio between the time
// to solution of a checkpointed backpropagation and the time to solution of
// plain backpropagation with all activations stored.
//
// One adjoint step is a taped forward plus a backward: the stage's tape comes
// from a taped advance or from a re-run of its forward just before the
// backward, so an adjoint step costs 1+BackwardRatio forward units, and plain
// backpropagation, one taped sweep, costs exactly l adjoint steps.
//
// BackwardRatio is the cost of one backward relative to one forward step.
// Deep-learning practice and the AD literature both put this close to 2 (the
// backward pass of a convolution does roughly twice the work of its forward
// pass), which is the default.
type CostModel struct {
	// BackwardRatio is the relative cost of a backward step (default 2).
	BackwardRatio float64
}

// DefaultCostModel is the cost model every planner and command prices with.
var DefaultCostModel = CostModel{BackwardRatio: 2}

// normalized returns the model with defaults applied.
func (m CostModel) normalized() CostModel {
	if m.BackwardRatio <= 0 {
		m.BackwardRatio = 2
	}
	return m
}

// BaselineTime returns the time (in forward-step units) of one
// backpropagation through a chain of l steps with every activation stored:
// l taped forward steps plus l backward steps.
func (m CostModel) BaselineTime(l int) float64 {
	m = m.normalized()
	return float64(l) * (1 + m.BackwardRatio)
}

// Time returns the time (in forward-step units) of a checkpointed
// backpropagation that executes `advances` untaped forward steps in total
// (initial sweep plus recomputation) and l adjoint steps.
func (m CostModel) Time(l int, advances int64) float64 {
	return float64(advances) + m.BaselineTime(l)
}

// TraceTime returns the time (in forward-step units) of the schedule whose
// trace is tr: its advances and l adjoint steps, plus one forward step per
// state written to or read from flash. It prices what the executor runs,
// including a flash slot read again on every restore from it.
func (m CostModel) TraceTime(l int, tr *schedule.Trace) float64 {
	return m.Time(l, tr.Forwards) + float64(tr.DiskWrites+tr.DiskReads)
}

// Rho returns the recompute factor of a schedule that executes `advances`
// forward steps for a chain of l steps: Time / BaselineTime, so every advance
// is overhead and zero advances is exactly 1.
func (m CostModel) Rho(l int, advances int64) float64 {
	if l == 0 {
		return 1
	}
	return m.Time(l, advances) / m.BaselineTime(l)
}

// ForwardBudget returns the largest number of advances that keeps the
// recompute factor at or below rho for a chain of l steps:
// advances <= (rho-1)*BaselineTime(l), or -1 if rho is below 1.
func (m CostModel) ForwardBudget(l int, rho float64) int64 {
	budget := (rho - 1) * m.BaselineTime(l)
	if budget < 0 {
		return -1
	}
	return int64(math.Floor(budget + 1e-9))
}

// RhoResult describes the outcome of a recompute-factor-budgeted slot search.
type RhoResult struct {
	Rho      float64 // the requested recompute factor
	Slots    int     // minimal checkpoint slots achieving it
	Forwards int64   // advances of the optimal schedule with Slots
	Feasible bool    // false if even storing everything exceeds the budget
}

// MinSlotsForRho returns the minimal number of checkpoint slots such that the
// optimal (Revolve) schedule's recompute factor does not exceed rho. This is
// the "PyRevolve + elementary binary search" procedure of Section VI. Below
// Rho(l, l-1), the price of storing every state, no slot count meets rho: the
// result is infeasible and reports that store-all footprint, l-1 slots.
func MinSlotsForRho(l int, rho float64, m CostModel) RhoResult {
	if l <= 1 {
		return RhoResult{Rho: rho, Slots: 0, Forwards: 0, Feasible: true}
	}
	budget := m.ForwardBudget(l, rho)
	if budget < 0 {
		return RhoResult{Rho: rho, Slots: l - 1, Forwards: MinForwards(l, l-1), Feasible: false}
	}
	slots, forwards, ok := MinSlotsForForwards(l, budget)
	return RhoResult{Rho: rho, Slots: slots, Forwards: forwards, Feasible: ok}
}
