package checkpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSequentialMemorySlotsFormula(t *testing.T) {
	// Direct evaluation of the paper's formula: Memory = s-1 + (l - floor(l/s)(s-1)).
	cases := []struct {
		l, s, want int
	}{
		{10, 1, 10}, // one segment stores everything
		{10, 2, 6},  // 1 + (10 - 5*1)
		{10, 5, 6},  // 4 + (10 - 2*4)
		{12, 3, 6},  // 2 + (12 - 4*2)
		{100, 10, 19},
		{152, 12, 31}, // 11 + (152 - 12*11)
		{7, 3, 5},     // 2 + (7 - 2*2)
	}
	for _, tc := range cases {
		if got := SequentialMemorySlots(tc.l, tc.s); got != tc.want {
			t.Errorf("SequentialMemorySlots(%d, %d) = %d, want %d", tc.l, tc.s, got, tc.want)
		}
	}
}

func TestSequentialMemorySlotsEdgeCases(t *testing.T) {
	if SequentialMemorySlots(0, 3) != 0 {
		t.Fatal("empty chain should need no slots")
	}
	if SequentialMemorySlots(10, 0) != SequentialMemorySlots(10, 1) {
		t.Fatal("segment counts below 1 should clamp to 1")
	}
	if SequentialMemorySlots(5, 50) != SequentialMemorySlots(5, 5) {
		t.Fatal("segment counts above l should clamp to l")
	}
}

func TestSequentialLowerBoundHolds(t *testing.T) {
	// For every l and every s >= 2, the formula must stay at or above 2*sqrt(l)-1
	// (the paper's bound is asymptotic; the discrete formula can dip a hair
	// below the continuous bound, but never by a full slot).
	for l := 2; l <= 400; l++ {
		bound := SequentialLowerBound(l)
		for s := 2; s <= l; s++ {
			if m := float64(SequentialMemorySlots(l, s)); m < bound-1 {
				t.Fatalf("l=%d s=%d: memory %v below lower bound %v", l, s, m, bound)
			}
		}
	}
}

func TestSequentialLowerBoundIsTightSomewhere(t *testing.T) {
	// For perfect squares the optimal segment choice should come close to the
	// 2*sqrt(l) bound (within a couple of slots).
	for _, l := range []int{16, 64, 100, 144} {
		_, best := BestSequentialSegments(l)
		bound := SequentialLowerBound(l)
		if float64(best) > bound+2 {
			t.Fatalf("l=%d: best sequential memory %d is far from the bound %v", l, best, bound)
		}
	}
}

func TestBestSequentialSegments(t *testing.T) {
	s, m := BestSequentialSegments(100)
	if m != SequentialMemorySlots(100, s) {
		t.Fatal("BestSequentialSegments returned inconsistent pair")
	}
	for s2 := 1; s2 <= 100; s2++ {
		if SequentialMemorySlots(100, s2) < m {
			t.Fatalf("segment count %d beats the reported best", s2)
		}
	}
	if s0, m0 := BestSequentialSegments(0); s0 != 1 || m0 != 0 {
		t.Fatal("empty chain mishandled")
	}
}

func TestSequentialForwardsAndRho(t *testing.T) {
	// s=1: just the initial sweep (the adjoint of the final step needs no advance).
	if SequentialForwards(10, 1) != 9 {
		t.Fatalf("SequentialForwards(10,1) = %d, want 9", SequentialForwards(10, 1))
	}
	// s=2 on l=10: one extra re-advance of the first segment (4 steps).
	if SequentialForwards(10, 2) != 13 {
		t.Fatalf("SequentialForwards(10,2) = %d, want 13", SequentialForwards(10, 2))
	}
	m := CostModel{BackwardRatio: 1}
	// l=10, s=2: time = 13 + 20 = 33, baseline 20 -> rho 1.65.
	if got := SequentialRho(10, 2, m); math.Abs(got-1.65) > 1e-12 {
		t.Fatalf("SequentialRho(10,2) = %v, want 1.65", got)
	}
	// s=1 is the schedule of storing every state: rho*.
	if got, want := SequentialRho(10, 1, m), m.Rho(10, 9); got != want {
		t.Fatalf("SequentialRho(10,1) = %v, want rho* = %v", got, want)
	}
}

func TestMinSequentialSlotsForRho(t *testing.T) {
	m := DefaultCostModel
	// A generous budget should reach the best achievable memory.
	slots, segs, ok := MinSequentialSlotsForRho(100, 3, m)
	if !ok {
		t.Fatal("rho=3 must be feasible for sequential checkpointing")
	}
	_, best := BestSequentialSegments(100)
	if slots != best {
		t.Fatalf("generous budget should reach the best memory %d, got %d (segments=%d)", best, slots, segs)
	}
	// An impossible budget returns not-ok.
	if _, _, ok := MinSequentialSlotsForRho(100, 0.5, m); ok {
		t.Fatal("rho=0.5 cannot be feasible")
	}
	// rho=1 is below rho*: not even one segment meets it.
	if _, _, ok := MinSequentialSlotsForRho(100, 1, m); ok {
		t.Fatal("rho=1 is below rho* and cannot be feasible")
	}
	// rho* admits only s=1 (no recomputation beyond the sweep).
	slots1, segs1, ok1 := MinSequentialSlotsForRho(100, rhoStar(100), m)
	if !ok1 || segs1 != 1 || slots1 != 100 {
		t.Fatalf("rho* should force a single segment storing everything, got slots=%d segs=%d ok=%v", slots1, segs1, ok1)
	}
}

// Property: the optimal binomial checkpointing never needs more memory than
// checkpoint_sequential at the same recompute budget — the paper's core
// argument for replacing the uniform scheme. Below rho* neither meets the
// budget.
func TestRevolveDominatesSequentialProperty(t *testing.T) {
	m := DefaultCostModel
	f := func(lRaw, rhoRaw uint8) bool {
		l := int(lRaw%120) + 4
		rho := 1.1 + float64(rhoRaw%20)/10.0
		seqSlots, _, seqOK := MinSequentialSlotsForRho(l, rho, m)
		res := MinSlotsForRho(l, rho, m)
		if rho < rhoStar(l) {
			return !seqOK && !res.Feasible && res.Slots == l-1
		}
		if !res.Feasible {
			return false
		}
		if !seqOK {
			return true // sequential cannot even meet the budget; revolve wins by default
		}
		// Compare total retained activations: revolve stores slots + input.
		return res.Slots+1 <= seqSlots+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the formula value always lies between 2*sqrt(l)-1 and l.
func TestSequentialMemoryRangeProperty(t *testing.T) {
	f := func(lRaw, sRaw uint8) bool {
		l := int(lRaw%200) + 1
		s := int(sRaw%20) + 1
		m := SequentialMemorySlots(l, s)
		return float64(m) >= SequentialLowerBound(l)-1 && m <= l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
