package checkpoint

import (
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/schedule"
)

func TestPlanPeriodicValid(t *testing.T) {
	for _, l := range []int{5, 18, 50} {
		for _, k := range []int{1, 2, 5, 10} {
			sched, err := PlanPeriodic(l, k)
			if err != nil {
				t.Fatalf("PlanPeriodic(%d,%d): %v", l, k, err)
			}
			tr, err := schedule.Run(sched)
			if err != nil {
				t.Fatalf("PlanPeriodic(%d,%d) invalid: %v", l, k, err)
			}
			if len(tr.BackpropOrder) != l {
				t.Fatalf("PlanPeriodic(%d,%d) did not reverse the whole chain", l, k)
			}
		}
	}
	if _, err := PlanPeriodic(10, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestPeriodicMemorySlots(t *testing.T) {
	// Interval 1 retains everything; interval l degenerates to one segment.
	if PeriodicMemorySlots(10, 1) != SequentialMemorySlots(10, 10) {
		t.Fatal("interval 1 should match sequential with l segments")
	}
	if PeriodicMemorySlots(10, 10) != SequentialMemorySlots(10, 1) {
		t.Fatal("interval l should match a single segment")
	}
	if PeriodicMemorySlots(0, 3) != 0 {
		t.Fatal("empty chain should need no slots")
	}
}

func TestLogSpacedStates(t *testing.T) {
	states := LogSpacedStates(16)
	// Expect the input plus states at distances 1, 2, 4, 8 from the end.
	want := map[int]bool{0: true, 15: true, 14: true, 12: true, 8: true}
	if len(states) != len(want) {
		t.Fatalf("LogSpacedStates(16) = %v", states)
	}
	for _, s := range states {
		if !want[s] {
			t.Fatalf("unexpected retained state %d in %v", s, states)
		}
	}
	if LogSpacedStates(0) != nil {
		t.Fatal("empty chain should retain nothing")
	}
	if LogSpacedMemorySlots(16) != 4 {
		t.Fatalf("LogSpacedMemorySlots(16) = %d, want 4", LogSpacedMemorySlots(16))
	}
}

func TestLogSpacedForwards(t *testing.T) {
	// For l=4 the retained states are {0, 3, 2}. Adjoints need states
	// 3 (kept), 2 (kept), 1 (advance 1 from 0), 0 (kept): sweep 3 + 1 = 4.
	if got := LogSpacedForwards(4); got != 4 {
		t.Fatalf("LogSpacedForwards(4) = %d, want 4", got)
	}
	if LogSpacedForwards(1) != 0 {
		t.Fatal("trivial chain should cost nothing")
	}
	// The scheme always costs at least the sweep and at most the zero-slot walk.
	for _, l := range []int{10, 50, 152} {
		fw := LogSpacedForwards(l)
		if fw < int64(l-1) || fw > int64(l)*int64(l-1)/2 {
			t.Fatalf("LogSpacedForwards(%d) = %d out of range", l, fw)
		}
	}
}

func TestCompareBaselinesOrdering(t *testing.T) {
	m := DefaultCostModel
	cmp := CompareBaselines(152, 2.0, m)
	byScheme := map[string]BaselineComparison{}
	for _, c := range cmp {
		byScheme[c.Scheme] = c
	}
	if len(byScheme) != 5 {
		t.Fatalf("expected 5 schemes, got %d", len(byScheme))
	}
	rev := byScheme["revolve"]
	seq := byScheme["sequential"]
	per := byScheme["periodic"]
	all := byScheme["store-all"]
	if !rev.FeasibleFor || !seq.FeasibleFor || !per.FeasibleFor || !all.FeasibleFor {
		t.Fatalf("all tunable schemes should meet rho=2 for l=152: %+v", cmp)
	}
	// The paper's point: optimal checkpointing retains the fewest activations
	// at the same recompute budget.
	if rev.Slots > seq.Slots || rev.Slots > per.Slots || rev.Slots > all.Slots {
		t.Fatalf("revolve should need the fewest slots: %+v", cmp)
	}
	// And every scheme respects its reported budget.
	for _, c := range cmp {
		if c.FeasibleFor && c.Rho > 2.0+1e-9 {
			t.Fatalf("%s reports rho %.3f above the budget", c.Scheme, c.Rho)
		}
	}
}

// Property: periodic schedules are valid and their simulated retained-state
// peak stays within one slot of the closed-form count.
func TestPeriodicFormulaMatchesScheduleProperty(t *testing.T) {
	f := func(lRaw, kRaw uint8) bool {
		l := int(lRaw%50) + 2
		k := int(kRaw%10) + 1
		sched, err := PlanPeriodic(l, k)
		if err != nil {
			return false
		}
		tr, err := schedule.Run(sched)
		if err != nil {
			return false
		}
		formula := PeriodicMemorySlots(l, k)
		return tr.PeakSlots <= formula && tr.PeakSlots >= formula-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
