package schedule

import (
	"strings"
	"testing"
)

// storeAll5 is a hand-written valid schedule for a 5-step chain: sweep
// storing every state, then backprop with restores and frees.
func storeAll5() []Action {
	return []Action{
		{Kind: ActionAdvance, Steps: 1}, {Kind: ActionSnapshot, Slot: 0},
		{Kind: ActionAdvance, Steps: 1}, {Kind: ActionSnapshot, Slot: 1},
		{Kind: ActionAdvance, Steps: 1}, {Kind: ActionSnapshot, Slot: 2},
		{Kind: ActionAdvance, Steps: 1}, {Kind: ActionSnapshot, Slot: 3},
		{Kind: ActionBackprop},
		{Kind: ActionRestore, Slot: 2}, {Kind: ActionBackprop}, {Kind: ActionFree, Slot: 3},
		{Kind: ActionRestore, Slot: 1}, {Kind: ActionBackprop}, {Kind: ActionFree, Slot: 2},
		{Kind: ActionRestore, Slot: 0}, {Kind: ActionBackprop}, {Kind: ActionFree, Slot: 1},
		{Kind: ActionRestore, Slot: InputSlot}, {Kind: ActionBackprop}, {Kind: ActionFree, Slot: 0},
	}
}

func TestRunValidSchedule(t *testing.T) {
	tr, err := Run(Schedule{Length: 5, Slots: 4, Policy: "store-all", Actions: storeAll5()})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Forwards != 4 || tr.PeakSlots != 4 || tr.Snapshots != 4 || tr.Restores != 4 {
		t.Fatalf("unexpected trace %+v", tr)
	}
	if len(tr.BackpropOrder) != 5 || tr.BackpropOrder[0] != 5 || tr.BackpropOrder[4] != 1 {
		t.Fatalf("wrong adjoint order %v", tr.BackpropOrder)
	}
	if tr.MaxStepExecutions != 1 {
		t.Fatalf("store-all must run each step once, got %d", tr.MaxStepExecutions)
	}
}

func TestRunRejectsInvalidSchedules(t *testing.T) {
	cases := []struct {
		name    string
		length  int
		slots   int
		actions []Action
	}{
		{"advance past end", 2, 1, []Action{{Kind: ActionAdvance, Steps: 3}}},
		{"non-positive advance", 2, 1, []Action{{Kind: ActionAdvance, Steps: 0}}},
		{"slot out of range", 2, 1, []Action{{Kind: ActionSnapshot, Slot: 5}}},
		{"double snapshot", 2, 1, []Action{
			{Kind: ActionSnapshot, Slot: 0}, {Kind: ActionAdvance, Steps: 1}, {Kind: ActionSnapshot, Slot: 0}}},
		{"restore empty slot", 2, 1, []Action{{Kind: ActionRestore, Slot: 0}}},
		{"free empty slot", 2, 1, []Action{{Kind: ActionFree, Slot: 0}}},
		{"backprop wrong state", 2, 1, []Action{{Kind: ActionBackprop}}},
		{"too many backprops", 1, 0, []Action{{Kind: ActionBackprop}, {Kind: ActionBackprop}}},
		{"incomplete", 2, 1, []Action{{Kind: ActionAdvance, Steps: 1}, {Kind: ActionBackprop}}},
		{"unknown kind", 1, 0, []Action{{Kind: ActionKind(99)}}},
		{"tape killed by an untaped advance", 2, 0, []Action{
			{Kind: ActionAdvance, Steps: 1, Taped: true}, {Kind: ActionRestore, Slot: InputSlot},
			{Kind: ActionAdvance, Steps: 1}, {Kind: ActionAdvance, Steps: 1, Taped: true},
			{Kind: ActionBackprop}, {Kind: ActionBackprop}}},
		{"negative length and budget", -3, -2, []Action{{Kind: ActionSnapshot, Slot: 0}}},
		{"negative length, no actions", -3, 0, nil},
	}
	for _, tc := range cases {
		if _, err := Run(Schedule{Length: tc.length, Slots: tc.slots, Policy: "bad", Actions: tc.actions}); err == nil {
			t.Fatalf("%s: invalid schedule accepted", tc.name)
		}
	}
}

func TestActionStringsAndRender(t *testing.T) {
	if got := (Action{Kind: ActionRestore, Slot: InputSlot}).String(); got != "restore[input]" {
		t.Fatalf("input restore rendered as %q", got)
	}
	if got := (Action{Kind: ActionAdvance, Steps: 3}).String(); got != "advance(3)" {
		t.Fatalf("advance rendered as %q", got)
	}
	if got := (Action{Kind: ActionAdvance, Steps: 21, Taped: true}).String(); got != "advance(21)+tape" {
		t.Fatalf("taped advance rendered as %q", got)
	}
	mem := Schedule{Length: 5, Slots: 4, Policy: "store-all", Actions: storeAll5()}
	r := Render(mem)
	if !strings.Contains(r, "backprop") || !strings.Contains(r, "store-all") {
		t.Fatalf("render missing content:\n%s", r)
	}
	if s := mem.String(); !strings.Contains(s, "forwards=4") {
		t.Fatalf("summary missing trace counters: %s", s)
	}
	if s := (Schedule{Length: 2, Slots: 1, Policy: "bad", Actions: []Action{{Kind: ActionBackprop}}}).String(); !strings.Contains(s, "INVALID") {
		t.Fatalf("invalid schedule summary should say so: %s", s)
	}
}

func TestPeakBytes(t *testing.T) {
	mem := Schedule{Length: 5, Slots: 4, Policy: "store-all", Actions: storeAll5()}
	uniform := []int64{10, 10, 10, 10, 10, 10}
	peak, err := PeakBytes(mem, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 50 {
		t.Fatalf("uniform peak %d, want 50 (input + 4 checkpoints)", peak)
	}
	if _, err := PeakBytes(mem, uniform[:3]); err == nil {
		t.Fatal("wrong stateBytes length accepted")
	}
	if _, err := PeakBytes(Schedule{Length: -1}, nil); err == nil {
		t.Fatal("negative length accepted")
	}
	runaway := Schedule{Length: 5, Slots: 4, Policy: "bad", Actions: []Action{
		{Kind: ActionAdvance, Steps: 9}, {Kind: ActionSnapshot, Slot: 0}}}
	if _, err := PeakBytes(runaway, uniform); err == nil {
		t.Fatal("advance past the chain end accepted")
	}
	hetero := []int64{1, 100, 1, 1, 1, 1}
	peakH, err := PeakBytes(mem, hetero)
	if err != nil {
		t.Fatal(err)
	}
	if peakH != 104 {
		t.Fatalf("hetero peak %d, want 104", peakH)
	}
	// Store-all as one taped sweep holds every state as a tape: the input
	// plus x_1..x_5, each counted once.
	taped := Schedule{Length: 5, Policy: "store-all", Actions: []Action{{Kind: ActionAdvance, Steps: 5, Taped: true}}}
	for range 5 {
		taped.Actions = append(taped.Actions, Action{Kind: ActionBackprop})
	}
	if peak, err := PeakBytes(taped, []int64{1, 2, 4, 8, 16, 32}); err != nil || peak != 63 {
		t.Fatalf("taped store-all peak %d (%v), want 63", peak, err)
	}
	// revolve(2) on 6 uniform steps holds the input, two slots and the
	// working state, as the executor measures.
	adv := func(n int) Action { return Action{Kind: ActionAdvance, Steps: n} }
	snap := func(s int) Action { return Action{Kind: ActionSnapshot, Slot: s} }
	restore := func(s int) Action { return Action{Kind: ActionRestore, Slot: s} }
	free := func(s int) Action { return Action{Kind: ActionFree, Slot: s} }
	back := Action{Kind: ActionBackprop}
	revolve := Schedule{Length: 6, Slots: 2, Actions: []Action{
		adv(1), snap(0), adv(2), snap(1), adv(2), back, restore(1), adv(1), back, restore(1), back, free(1),
		restore(0), adv(1), back, restore(0), back, free(0), restore(InputSlot), back}}
	if peak, err := PeakBytes(revolve, []int64{10, 10, 10, 10, 10, 10, 10}); err != nil || peak != 40 {
		t.Fatalf("revolve(2) peak %d (%v), want 40: 4 states", peak, err)
	}
	// An uneven chain can peak inside an advance: x_1 passes while the
	// input's copy is held, and is never the working state at an action's
	// end with that slot still full.
	mid := Schedule{Length: 3, Slots: 1, Actions: []Action{
		snap(0), adv(2), back, free(0), restore(InputSlot), adv(1), back, restore(InputSlot), back}}
	if peak, err := PeakBytes(mid, []int64{1, 100, 1, 1}); err != nil || peak != 102 {
		t.Fatalf("mid-advance peak %d (%v), want 102", peak, err)
	}
}
