package checkpoint

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/schedule"
)

func mustTrace(t *testing.T, s schedule.Schedule) *schedule.Trace {
	t.Helper()
	tr, err := schedule.Run(s)
	if err != nil {
		t.Fatalf("schedule %s is invalid: %v", s, err)
	}
	return tr
}

func checkAdjointOrder(t *testing.T, tr *schedule.Trace, l int) {
	t.Helper()
	if len(tr.BackpropOrder) != l {
		t.Fatalf("expected %d adjoint steps, got %d", l, len(tr.BackpropOrder))
	}
	for i, step := range tr.BackpropOrder {
		if step != l-i {
			t.Fatalf("adjoint steps out of order: position %d ran step %d", i, step)
		}
	}
}

func TestPlanRevolveMatchesDP(t *testing.T) {
	for _, l := range []int{1, 2, 3, 5, 10, 18, 34, 50, 101, 152} {
		for _, c := range []int{0, 1, 2, 3, 5, 8, 20, 151} {
			sched, err := PlanRevolve(l, c)
			if err != nil {
				t.Fatalf("PlanRevolve(%d,%d): %v", l, c, err)
			}
			tr := mustTrace(t, sched)
			checkAdjointOrder(t, tr, l)
			if tr.Forwards != MinForwards(l, c) {
				t.Fatalf("PlanRevolve(%d,%d) executes %d forwards, DP optimum is %d", l, c, tr.Forwards, MinForwards(l, c))
			}
			if tr.PeakSlots > c {
				t.Fatalf("PlanRevolve(%d,%d) used %d slots, budget %d", l, c, tr.PeakSlots, c)
			}
		}
	}
}

func TestPlanRevolveRepetitionBound(t *testing.T) {
	// The observed maximum per-step execution count of the generated schedule
	// must not exceed the binomial repetition number plus one.
	for _, tc := range []struct{ l, c int }{{50, 3}, {101, 5}, {152, 8}, {152, 2}} {
		sched, err := PlanRevolve(tc.l, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		tr := mustTrace(t, sched)
		if rep := Repetition(tc.l, tc.c); tr.MaxStepExecutions > rep+1 {
			t.Fatalf("schedule (%d,%d) executes a step %d times, repetition number is %d", tc.l, tc.c, tr.MaxStepExecutions, rep)
		}
	}
}

func TestPlanStoreAll(t *testing.T) {
	for _, l := range []int{1, 2, 5, 18, 50} {
		sched, err := PlanStoreAll(l)
		if err != nil {
			t.Fatal(err)
		}
		tr := mustTrace(t, sched)
		checkAdjointOrder(t, tr, l)
		if tr.Forwards != int64(l-1) && l > 0 {
			if !(l == 1 && tr.Forwards == 0) {
				t.Fatalf("store-all for l=%d ran %d forwards, want %d", l, tr.Forwards, l-1)
			}
		}
		if tr.MaxStepExecutions > 1 {
			t.Fatalf("store-all must never recompute, but a step ran %d times", tr.MaxStepExecutions)
		}
		if tr.PeakSlots > l-1 && l > 1 {
			t.Fatalf("store-all peak slots %d exceeds l-1=%d", tr.PeakSlots, l-1)
		}
	}
}

func TestPlanSequentialValidAndCosts(t *testing.T) {
	for _, l := range []int{4, 10, 18, 34, 50} {
		for _, s := range []int{1, 2, 3, 5, 7} {
			sched, err := PlanSequential(l, s)
			if err != nil {
				t.Fatalf("PlanSequential(%d,%d): %v", l, s, err)
			}
			tr := mustTrace(t, sched)
			checkAdjointOrder(t, tr, l)
			segments := s
			if segments > l {
				segments = l
			}
			if want := SequentialForwards(l, segments); tr.Forwards != want {
				t.Fatalf("PlanSequential(%d,%d) ran %d forwards, formula says %d", l, s, tr.Forwards, want)
			}
			// The simulated peak should be within one buffer of the paper's
			// closed-form slot count (the formula counts the working buffer
			// of the final state slightly differently).
			formula := SequentialMemorySlots(l, segments)
			if tr.PeakSlots > formula {
				t.Fatalf("PlanSequential(%d,%d) peak %d exceeds formula %d", l, s, tr.PeakSlots, formula)
			}
			if tr.PeakSlots < formula-2 {
				t.Fatalf("PlanSequential(%d,%d) peak %d is far below formula %d — accounting drifted", l, s, tr.PeakSlots, formula)
			}
		}
	}
}

func TestSequentialNoRecomputeBeyondTwice(t *testing.T) {
	sched, err := PlanSequential(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrace(t, sched)
	if tr.MaxStepExecutions > 2 {
		t.Fatalf("checkpoint_sequential re-runs each segment at most once, but a step ran %d times", tr.MaxStepExecutions)
	}
}

func TestPlanSequentialRejectsBadSegments(t *testing.T) {
	if _, err := PlanSequential(10, 0); err == nil {
		t.Fatal("zero segments should be rejected")
	}
	if _, err := PlanSequential(-1, 2); err == nil {
		t.Fatal("negative length should be rejected")
	}
}

func TestScheduleRenderAndString(t *testing.T) {
	sched, err := PlanRevolve(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(schedule.Render(sched), "backprop") {
		t.Fatal("Render should list backprop actions")
	}
	if !strings.Contains(sched.String(), "revolve") {
		t.Fatalf("String should mention the policy: %s", sched.String())
	}
	a := schedule.Action{Kind: schedule.ActionRestore, Slot: schedule.InputSlot}
	if a.String() != "restore[input]" {
		t.Fatalf("input restore rendered as %q", a.String())
	}
}

func TestTraceRejectsInvalidSchedules(t *testing.T) {
	cases := []struct {
		name  string
		sched schedule.Schedule
	}{
		{"advance past end", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionAdvance, Steps: 5}}}},
		{"snapshot bad slot", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionSnapshot, Slot: 3}}}},
		{"restore empty slot", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionRestore, Slot: 0}}}},
		{"free empty slot", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionFree, Slot: 0}}}},
		{"backprop wrong state", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionBackprop}}}},
		{"incomplete", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionAdvance, Steps: 1}, {Kind: schedule.ActionBackprop}}}},
		{"double snapshot", schedule.Schedule{Length: 3, Slots: 1, Actions: []schedule.Action{
			{Kind: schedule.ActionAdvance, Steps: 1}, {Kind: schedule.ActionSnapshot, Slot: 0}, {Kind: schedule.ActionSnapshot, Slot: 0},
		}}},
		{"nonpositive advance", schedule.Schedule{Length: 2, Slots: 1, Actions: []schedule.Action{{Kind: schedule.ActionAdvance, Steps: 0}}}},
	}
	for _, tc := range cases {
		if _, err := schedule.Run(tc.sched); err == nil {
			t.Errorf("%s: invalid schedule accepted", tc.name)
		}
	}
}

func TestTraceValidMinimalSchedule(t *testing.T) {
	// Hand-written schedule for l=2, one slot: advance to x_1, backprop step 2,
	// restore input, backprop step 1.
	sched := schedule.Schedule{Length: 2, Slots: 1, Policy: "manual", Actions: []schedule.Action{
		{Kind: schedule.ActionAdvance, Steps: 1},
		{Kind: schedule.ActionBackprop},
		{Kind: schedule.ActionRestore, Slot: schedule.InputSlot},
		{Kind: schedule.ActionBackprop},
	}}
	tr, err := schedule.Run(sched)
	if err != nil {
		t.Fatalf("manual schedule rejected: %v", err)
	}
	if tr.Forwards != 1 || tr.PeakSlots != 0 {
		t.Fatalf("manual schedule trace wrong: %+v", tr)
	}
}

// Property: for random (l, c) the generated Revolve schedule is valid, optimal
// and within budget.
func TestPlanRevolveProperty(t *testing.T) {
	f := func(lRaw, cRaw uint8) bool {
		l := int(lRaw%80) + 1
		c := int(cRaw % 12)
		sched, err := PlanRevolve(l, c)
		if err != nil {
			return false
		}
		tr, err := schedule.Run(sched)
		if err != nil {
			return false
		}
		if tr.Forwards != MinForwards(l, c) {
			return false
		}
		cap := c
		if cap > l-1 {
			cap = l - 1
		}
		if cap < 0 {
			cap = 0
		}
		return tr.PeakSlots <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequential schedules are always valid and their forwards match
// the closed-form count.
func TestPlanSequentialProperty(t *testing.T) {
	f := func(lRaw, sRaw uint8) bool {
		l := int(lRaw%60) + 1
		s := int(sRaw%8) + 1
		sched, err := PlanSequential(l, s)
		if err != nil {
			return false
		}
		tr, err := schedule.Run(sched)
		if err != nil {
			return false
		}
		if s > l {
			s = l
		}
		return tr.Forwards == SequentialForwards(l, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
