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
	// Store-all: l-1 forwards -> rho just below 1.
	rho := m.Rho(100, 99)
	if rho >= 1 || rho < 0.99 {
		t.Fatalf("store-all rho = %v, want just below 1", rho)
	}
	// Doubling the forwards over the baseline: (200 + 200) / 300 = 4/3.
	if got := m.Rho(100, 200); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Fatalf("Rho(100, 200) = %v, want 4/3", got)
	}
	if m.Rho(0, 0) != 1 {
		t.Fatal("Rho of an empty chain should be 1")
	}
}

// TestTraceTimeCountsFlashIO: a traced plan is priced at its forwards and
// backwards plus one forward step per flash write and per flash read, and
// a flash slot restored twice is read twice. Two-level with 3 flash and 3
// RAM slots on 21 steps writes 3 boundaries and reads 5 times: 42 backward
// + 34 forward + 8 I/O = 84, what Revolve with 3 slots costs.
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
	if got := m.TraceTime(21, tr); got != 84 || got != m.Time(21, MinForwards(21, 3)) {
		t.Fatalf("TraceTime = %v, want 84 (revolve(3) costs %v)", got, m.Time(21, MinForwards(21, 3)))
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
	// rho=1: budget = 3l - 2l = l.
	if got := m.ForwardBudget(152, 1); got != 152 {
		t.Fatalf("ForwardBudget(152, 1) = %d, want 152", got)
	}
	// rho=2: budget = 6l - 2l = 4l.
	if got := m.ForwardBudget(100, 2); got != 400 {
		t.Fatalf("ForwardBudget(100, 2) = %d, want 400", got)
	}
	// rho below the backward share is infeasible.
	if got := m.ForwardBudget(100, 0.5); got != -1 {
		t.Fatalf("ForwardBudget(100, 0.5) = %d, want -1", got)
	}
}

func TestMinSlotsForRhoAtOne(t *testing.T) {
	// rho = 1 admits exactly the store-all schedule (budget l >= l-1 forwards),
	// so the slot count should be close to l-1 and memory equals the tables.
	res := MinSlotsForRho(50, 1, DefaultCostModel)
	if !res.Feasible {
		t.Fatal("rho=1 must be feasible")
	}
	if res.Slots < 40 {
		t.Fatalf("rho=1 should need nearly all slots, got %d", res.Slots)
	}
	if res.Forwards > 50 {
		t.Fatalf("rho=1 forwards %d exceed budget", res.Forwards)
	}
}

func TestMinSlotsForRhoDecreasesWithRho(t *testing.T) {
	l := 152
	prev := l
	for _, rho := range []float64{1.0, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0} {
		res := MinSlotsForRho(l, rho, DefaultCostModel)
		if !res.Feasible {
			t.Fatalf("rho=%v should be feasible for l=%d", rho, l)
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

func TestRhoResultString(t *testing.T) {
	s := MinSlotsForRho(34, 2, DefaultCostModel).String()
	if len(s) == 0 {
		t.Fatal("empty String")
	}
}

// Property: the slot count returned by MinSlotsForRho always satisfies the
// budget, and one slot fewer always violates it (minimality), for feasible rho.
func TestMinSlotsForRhoMinimalProperty(t *testing.T) {
	m := DefaultCostModel
	f := func(lRaw uint8, rhoRaw uint8) bool {
		l := int(lRaw%100) + 2
		rho := 1.0 + float64(rhoRaw%30)/10.0
		res := MinSlotsForRho(l, rho, m)
		if !res.Feasible {
			return false // rho >= 1 is always feasible
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
