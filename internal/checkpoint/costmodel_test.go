package checkpoint

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/schedule"
)

func TestCostModelBaselineAndRho(t *testing.T) {
	m := CostModel{BackwardRatio: 2}
	if m.BaselineTime(100) != 300 {
		t.Fatalf("BaselineTime(100) = %v, want 300", m.BaselineTime(100))
	}
	// Plain backpropagation tapes its one sweep: no advance, rho exactly 1.
	if got := m.Rho(100, 0); got != 1 {
		t.Fatalf("Rho(100, 0) = %v, want exactly 1", got)
	}
	// A schedule storing every state advances l-1 times before its adjoints
	// retape them: rho* = 1 + (l-1)/((1+B)·l), 1.317 at l = 21.
	if got := m.Rho(21, 20); math.Abs(got-(1+20.0/63)) > 1e-12 {
		t.Fatalf("Rho(21, 20) = %v, want 1 + 20/63", got)
	}
	// 200 advances over the 300-unit baseline: (200 + 300) / 300 = 5/3.
	if got := m.Rho(100, 200); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Fatalf("Rho(100, 200) = %v, want 5/3", got)
	}
	if m.Rho(0, 0) != 1 {
		t.Fatal("Rho of an empty chain should be 1")
	}
}

// TestTraceTimeCountsFlashIO: a traced plan is priced at its forwards and
// backwards plus one forward step per flash write and per flash read, and
// a flash slot restored twice is read twice. Two-level with 3 flash and 3
// RAM slots on 21 steps writes 3 boundaries and reads 5 times: 21 taped
// forwards + 42 backward + 34 advances + 8 I/O = 105, what Revolve with 3
// slots costs.
func TestTraceTimeCountsFlashIO(t *testing.T) {
	m := DefaultCostModel
	s, err := PlanTwoLevel(21, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := schedule.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Forwards != 34 || tr.DiskWrites != 3 || tr.DiskReads != 5 {
		t.Fatalf("twolevel(3) on 21 steps: %d forwards, %d flash writes, %d flash reads; want 34, 3, 5",
			tr.Forwards, tr.DiskWrites, tr.DiskReads)
	}
	if got := m.TraceTime(21, tr); got != 105 || got != m.Time(21, MinForwards(21, 3)) {
		t.Fatalf("TraceTime = %v, want 105 (revolve(3) costs %v)", got, m.Time(21, MinForwards(21, 3)))
	}
	// A schedule with no flash tier costs its forwards and backwards alone.
	s, err = PlanRevolve(21, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err = schedule.Run(s); err != nil {
		t.Fatal(err)
	}
	if got, want := m.TraceTime(21, tr), m.Time(21, tr.Forwards); got != want {
		t.Fatalf("revolve(3): TraceTime %v, want Time %v", got, want)
	}
}

func TestCostModelDefaults(t *testing.T) {
	var m CostModel // zero value -> BackwardRatio defaults to 2
	if m.BaselineTime(10) != 30 {
		t.Fatalf("zero-value cost model should default BackwardRatio to 2, baseline=%v", m.BaselineTime(10))
	}
	if DefaultCostModel.BackwardRatio != 2 {
		t.Fatal("DefaultCostModel should use BackwardRatio 2")
	}
}

func TestForwardBudget(t *testing.T) {
	m := CostModel{BackwardRatio: 2}
	// rho=1: plain backpropagation's price, no advance to spare.
	if got := m.ForwardBudget(152, 1); got != 0 {
		t.Fatalf("ForwardBudget(152, 1) = %d, want 0", got)
	}
	// rho=2: budget = (2-1)·3l = 3l.
	if got := m.ForwardBudget(100, 2); got != 300 {
		t.Fatalf("ForwardBudget(100, 2) = %d, want 300", got)
	}
	// rho*(l) buys exactly the l-1 advances of storing every state.
	if got := m.ForwardBudget(21, m.Rho(21, 20)); got != 20 {
		t.Fatalf("ForwardBudget(21, rho*) = %d, want 20", got)
	}
	// rho below 1 is infeasible.
	if got := m.ForwardBudget(100, 0.5); got != -1 {
		t.Fatalf("ForwardBudget(100, 0.5) = %d, want -1", got)
	}
}

// rhoStar is the boundary of every slot search: Rho(l, l-1), the price of a
// schedule that stores every state.
func rhoStar(l int) float64 { return DefaultCostModel.Rho(l, int64(l-1)) }

func TestMinSlotsForRhoAtOne(t *testing.T) {
	// rho = 1 is plain backpropagation's price, which no Revolve schedule
	// meets: the search reports infeasible at the store-all footprint, l-1
	// slots.
	res := MinSlotsForRho(50, 1, DefaultCostModel)
	if res.Feasible || res.Slots != 49 {
		t.Fatalf("rho=1: %+v, want infeasible at 49 slots", res)
	}
	// rho* admits exactly the 49 advances of one sweep, which needs 48 slots:
	// the last state is the working state.
	res = MinSlotsForRho(50, rhoStar(50), DefaultCostModel)
	if !res.Feasible || res.Slots != 48 || res.Forwards != 49 || MinForwards(50, 47) <= 49 {
		t.Fatalf("rho*: %+v, want feasible and minimal at 48 slots and 49 advances", res)
	}
}

func TestMinSlotsForRhoDecreasesWithRho(t *testing.T) {
	l := 152
	prev := l
	for _, rho := range []float64{1.0, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0} {
		res := MinSlotsForRho(l, rho, DefaultCostModel)
		if below := rho < rhoStar(l); res.Feasible == below || below && res.Slots != l-1 {
			t.Fatalf("rho=%v (rho* = %.3f) for l=%d: %+v", rho, rhoStar(l), l, res)
		}
		if res.Slots > prev {
			t.Fatalf("slot count must not increase with rho: %d at rho=%v after %d", res.Slots, rho, prev)
		}
		prev = res.Slots
	}
	// At rho=3 a 152-layer chain needs only a handful of checkpoints.
	res := MinSlotsForRho(l, 3, DefaultCostModel)
	if res.Slots > 10 {
		t.Fatalf("rho=3 should need at most ~10 slots for l=152, got %d", res.Slots)
	}
}

func TestMinSlotsForRhoInfeasible(t *testing.T) {
	res := MinSlotsForRho(100, 0.3, DefaultCostModel)
	if res.Feasible {
		t.Fatal("rho far below 1 cannot be feasible")
	}
	if res.Slots != 99 {
		t.Fatalf("infeasible result should report the store-all slot count, got %d", res.Slots)
	}
}

func TestMinSlotsForRhoTrivialChain(t *testing.T) {
	res := MinSlotsForRho(1, 1, DefaultCostModel)
	if !res.Feasible || res.Slots != 0 || res.Forwards != 0 {
		t.Fatalf("trivial chain mishandled: %+v", res)
	}
}

// Property: below rho* the search is infeasible at the store-all slot count;
// at or above it the returned slot count satisfies the budget, and one slot
// fewer violates it (minimality).
func TestMinSlotsForRhoMinimalProperty(t *testing.T) {
	m := DefaultCostModel
	f := func(lRaw uint8, rhoRaw uint8) bool {
		l := int(lRaw%100) + 2
		rho := 1.0 + float64(rhoRaw%30)/10.0
		res := MinSlotsForRho(l, rho, m)
		if rho < rhoStar(l) {
			return !res.Feasible && res.Slots == l-1
		}
		if !res.Feasible {
			return false
		}
		budget := m.ForwardBudget(l, rho)
		if res.Forwards > budget {
			return false
		}
		if res.Slots > 0 && MinForwards(l, res.Slots-1) <= budget {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
