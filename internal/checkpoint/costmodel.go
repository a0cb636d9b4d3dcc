package checkpoint

import (
	"fmt"
	"math"

	"github.com/edgeml/edgetrain/schedule"
)

// CostModel converts forward/backward step counts into the recompute factor
// rho used throughout Section VI of the paper. rho is the ratio between the
// time to solution of a checkpointed backpropagation and the time to
// solution of plain backpropagation with all activations stored.
//
// BackwardRatio is the cost of one adjoint (backward) step relative to one
// forward step. Deep-learning practice and the AD literature both put this
// close to 2 (the backward pass of a convolution does roughly twice the work
// of its forward pass), which is the default used by the benchmarks; setting
// it to 1 reproduces the symmetric-cost accounting.
type CostModel struct {
	// BackwardRatio is the relative cost of a backward step (default 2).
	BackwardRatio float64
}

// DefaultCostModel is the cost model used by the Figure 1 reproduction.
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
// l forward steps plus l backward steps.
func (m CostModel) BaselineTime(l int) float64 {
	m = m.normalized()
	return float64(l) * (1 + m.BackwardRatio)
}

// Time returns the time (in forward-step units) of a checkpointed
// backpropagation that executes `forwards` forward steps in total (initial
// sweep plus recomputation) and l backward steps.
func (m CostModel) Time(l int, forwards int64) float64 {
	m = m.normalized()
	return float64(forwards) + m.BackwardRatio*float64(l)
}

// TraceTime returns the time (in forward-step units) of the schedule whose
// trace is tr: its forwards and l backward steps, plus one forward step per
// state written to or read from flash. It prices what the executor runs,
// including a flash slot read again on every restore from it.
func (m CostModel) TraceTime(l int, tr *schedule.Trace) float64 {
	return m.Time(l, tr.Forwards) + float64(tr.DiskWrites+tr.DiskReads)
}

// Rho returns the recompute factor of a schedule that executes `forwards`
// forward steps for a chain of l steps: Time / BaselineTime. A store-all
// schedule has rho slightly below 1 (it performs l-1 forwards, because the
// adjoint of the final step needs no advance); callers normally clamp at 1.
func (m CostModel) Rho(l int, forwards int64) float64 {
	if l == 0 {
		return 1
	}
	return m.Time(l, forwards) / m.BaselineTime(l)
}

// ForwardBudget returns the largest number of forward-step executions that
// keeps the recompute factor at or below rho for a chain of l steps:
// forwards <= rho*(1+BackwardRatio)*l - BackwardRatio*l.
func (m CostModel) ForwardBudget(l int, rho float64) int64 {
	m = m.normalized()
	budget := rho*m.BaselineTime(l) - m.BackwardRatio*float64(l)
	if budget < 0 {
		return -1
	}
	return int64(math.Floor(budget + 1e-9))
}

// RhoResult describes the outcome of a recompute-factor-budgeted slot search.
type RhoResult struct {
	Rho      float64 // the requested recompute factor
	Slots    int     // minimal checkpoint slots achieving it
	Forwards int64   // forward executions of the optimal schedule with Slots
	Feasible bool    // false if even storing everything exceeds the budget
}

// MinSlotsForRho returns the minimal number of checkpoint slots such that the
// optimal (Revolve) schedule's recompute factor does not exceed rho. This is
// the "PyRevolve + elementary binary search" procedure of Section VI.
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

// String summarises the result.
func (r RhoResult) String() string {
	return fmt.Sprintf("rho<=%.3f: slots=%d forwards=%d feasible=%v", r.Rho, r.Slots, r.Forwards, r.Feasible)
}
