package schedule

import "testing"

func TestTierString(t *testing.T) {
	if TierRAM.String() != "ram" || TierDisk.String() != "disk" {
		t.Fatalf("tier names wrong: %v %v", TierRAM, TierDisk)
	}
	a := Action{Kind: ActionSnapshot, Slot: 2, Tier: TierDisk}
	if a.String() != "snapshot[2]@disk" {
		t.Fatalf("disk snapshot renders as %q", a.String())
	}
	a.Tier = TierRAM
	if a.String() != "snapshot[2]" {
		t.Fatalf("RAM snapshot must render tierlessly, got %q", a.String())
	}
}

// TestTraceTierAccounting pins the validator's per-tier counters on a
// hand-built two-tier schedule: state x_1 is written to disk, x_2 to RAM,
// and the disk checkpoint is restored twice.
func TestTraceTierAccounting(t *testing.T) {
	actions := []Action{
		{Kind: ActionAdvance, Steps: 1},
		{Kind: ActionSnapshot, Slot: 0, Tier: TierDisk}, // x_1 -> flash
		{Kind: ActionAdvance, Steps: 1},
		{Kind: ActionSnapshot, Slot: 1, Tier: TierRAM}, // x_2 -> RAM
		{Kind: ActionAdvance, Steps: 1},                // sweep ends at x_3
		{Kind: ActionBackprop},                         // step 4 from x_3
		{Kind: ActionRestore, Slot: 1},                 // RAM restore
		{Kind: ActionBackprop},                         // step 3 from x_2
		{Kind: ActionFree, Slot: 1},
		{Kind: ActionRestore, Slot: 0}, // flash read 1
		{Kind: ActionBackprop},         // step 2 from x_1
		{Kind: ActionRestore, Slot: 0}, // flash read 2 (re-read the boundary)
		{Kind: ActionFree, Slot: 0},
		{Kind: ActionRestore, Slot: InputSlot},
		{Kind: ActionBackprop}, // step 1 from x_0
	}
	s := Schedule{Length: 4, Slots: 2, Policy: "tier-test", Actions: actions}
	tr, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.DiskWrites != 1 {
		t.Fatalf("DiskWrites = %d, want 1", tr.DiskWrites)
	}
	if tr.DiskReads != 2 {
		t.Fatalf("DiskReads = %d, want 2", tr.DiskReads)
	}
	if tr.PeakDiskSlots != 1 || tr.PeakRAMSlots != 1 {
		t.Fatalf("tier peaks = %d RAM / %d disk, want 1/1", tr.PeakRAMSlots, tr.PeakDiskSlots)
	}
	if tr.PeakSlots != 2 {
		t.Fatalf("PeakSlots = %d, want 2", tr.PeakSlots)
	}
}

// TestUntieredScheduleKeepsRAMSemantics: a schedule with no tier annotations
// reports everything in the RAM tier and no disk traffic.
func TestUntieredScheduleKeepsRAMSemantics(t *testing.T) {
	actions := []Action{
		{Kind: ActionAdvance, Steps: 1},
		{Kind: ActionSnapshot, Slot: 0},
		{Kind: ActionAdvance, Steps: 1},
		{Kind: ActionBackprop},
		{Kind: ActionRestore, Slot: 0},
		{Kind: ActionBackprop},
		{Kind: ActionFree, Slot: 0},
		{Kind: ActionRestore, Slot: InputSlot},
		{Kind: ActionBackprop},
	}
	tr, err := Run(Schedule{Length: 3, Slots: 1, Policy: "plain", Actions: actions})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DiskWrites != 0 || tr.DiskReads != 0 || tr.PeakDiskSlots != 0 {
		t.Fatalf("untiered schedule reported disk activity: %+v", tr)
	}
	if tr.PeakRAMSlots != tr.PeakSlots {
		t.Fatalf("PeakRAMSlots %d must equal PeakSlots %d for untiered schedules", tr.PeakRAMSlots, tr.PeakSlots)
	}
}
