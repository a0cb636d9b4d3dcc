// Package schedule defines the public vocabulary of checkpointing schedules:
// the primitive Action type, the Schedule type every planner emits and every
// executor runs, and the Validator — the one piece of code that decides
// whether an action is legal and counts the states it holds (Trace.PeakStates),
// behind Run, PeakBytes and the chain executor, which checks each action
// against a Validator before executing it and applies it after.
//
// A schedule reverses a chain of Length steps F_1..F_L mapping state x_0 to
// x_L. The adjoint of step i needs its input x_{i-1} in memory; checkpoint
// slots hold intermediate states, and Advance actions re-run forward steps to
// rebuild states that were discarded. The input x_0 is always available and
// is addressed by the pseudo-slot InputSlot.
package schedule

import (
	"fmt"
	"strings"
)

// ActionKind enumerates the primitive operations a checkpointing schedule is
// made of.
type ActionKind int

// The schedule action vocabulary. Advance re-executes forward steps, Snapshot
// and Free manage checkpoint slots, Restore switches the working state to a
// stored one, and Backprop performs the adjoint of the next pending step.
const (
	// ActionAdvance executes Steps forward steps from the current working
	// state, moving it forward along the chain. A Taped advance keeps each
	// step's tape live, so that step's Backprop runs no forward.
	ActionAdvance ActionKind = iota
	// ActionSnapshot copies the current working state into checkpoint slot
	// Slot, which must be free.
	ActionSnapshot
	// ActionRestore loads the state stored in slot Slot (or the chain input
	// when Slot == InputSlot) into the working buffer.
	ActionRestore
	// ActionFree releases checkpoint slot Slot.
	ActionFree
	// ActionBackprop performs the adjoint of the next pending step, which
	// requires that step's live tape or the working state to hold its input.
	ActionBackprop
)

// InputSlot is the pseudo-slot identifier for the chain input x_0, which is
// always available and never counted against the checkpoint budget.
const InputSlot = -1

// Tier identifies the storage medium a checkpoint slot is written to. The
// schedule action vocabulary is storage-agnostic — every consumer may execute
// all slots in RAM — but tiered plans (the paper's Section VI two-level
// scheme) annotate each Snapshot with the tier the planner intended, so a
// tier-aware executor can spill the flash-tier states to disk.
type Tier int

const (
	// TierRAM keeps the checkpoint as an in-memory tensor reference. It is
	// the zero value, so un-annotated schedules behave exactly as before.
	TierRAM Tier = iota
	// TierDisk serializes the checkpoint to flash/disk storage.
	TierDisk
)

// String names the tier ("ram" or "disk").
func (t Tier) String() string {
	switch t {
	case TierRAM:
		return "ram"
	case TierDisk:
		return "disk"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Action is one primitive operation of a schedule.
type Action struct {
	Kind  ActionKind
	Steps int  // ActionAdvance: number of forward steps to execute
	Taped bool // ActionAdvance: each step's forward writes its tape
	Slot  int  // Snapshot/Restore/Free: slot index, or InputSlot for Restore
	Tier  Tier // ActionSnapshot: storage tier the slot is written to
}

// String renders the action compactly, e.g. "advance(21)+tape" or "snapshot[2]".
func (a Action) String() string {
	switch a.Kind {
	case ActionAdvance:
		if a.Taped {
			return fmt.Sprintf("advance(%d)+tape", a.Steps)
		}
		return fmt.Sprintf("advance(%d)", a.Steps)
	case ActionSnapshot:
		if a.Tier != TierRAM {
			return fmt.Sprintf("snapshot[%d]@%s", a.Slot, a.Tier)
		}
		return fmt.Sprintf("snapshot[%d]", a.Slot)
	case ActionRestore:
		if a.Slot == InputSlot {
			return "restore[input]"
		}
		return fmt.Sprintf("restore[%d]", a.Slot)
	case ActionFree:
		return fmt.Sprintf("free[%d]", a.Slot)
	case ActionBackprop:
		return "backprop"
	default:
		return fmt.Sprintf("unknown(%d)", int(a.Kind))
	}
}

// Schedule is a checkpointing plan for a chain of Length steps using at most
// Slots checkpoint slots: the one type the planners emit, Run validates and
// the executors run.
type Schedule struct {
	// Length is the number of chain steps L the schedule reverses.
	Length int
	// Slots is the checkpoint-slot budget the schedule stays within.
	Slots int
	// Policy is the human-readable label of the generating strategy, e.g.
	// "revolve", "sequential(4)" or "auto:twolevel(4)".
	Policy string
	// Actions is the plan itself. Consumers must not mutate it.
	Actions []Action
}

// String summarises the schedule in one line, tracing it to report its
// forwards and its peak states (or the validation error if the schedule is
// invalid).
func (s Schedule) String() string {
	tr, err := Run(s)
	if err != nil {
		return fmt.Sprintf("Schedule(%s, L=%d, slots=%d, INVALID: %v)", s.Policy, s.Length, s.Slots, err)
	}
	return fmt.Sprintf("Schedule(%s, L=%d, slots=%d, forwards=%d, peak=%d)",
		s.Policy, s.Length, s.Slots, tr.Forwards, tr.PeakStates)
}

// UsesTier reports whether any Snapshot action of the schedule is annotated
// with the given tier.
func UsesTier(s Schedule, tier Tier) bool {
	for _, a := range s.Actions {
		if a.Kind == ActionSnapshot && a.Tier == tier {
			return true
		}
	}
	return false
}

// Render returns a multi-line listing of the schedule's actions, useful for
// inspection from command-line tools.
func Render(s Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s schedule: L=%d slots=%d\n", s.Policy, s.Length, s.Slots)
	for i, a := range s.Actions {
		fmt.Fprintf(&b, "%4d  %s\n", i, a.String())
	}
	return b.String()
}

// PeakBytes simulates a schedule against a heterogeneous chain whose state
// x_i occupies stateBytes[i] bytes (Length+1 entries) and returns its
// Trace.PeakStateBytes: Trace.PeakStates' set in bytes. A TierDisk slot is
// not in RAM, as under the tiered store chain.Step gives every schedule
// with a flash tier. The schedule is validated as by Run.
func PeakBytes(s Schedule, stateBytes []int64) (int64, error) {
	if s.Length < 0 || len(stateBytes) != s.Length+1 {
		return 0, fmt.Errorf("schedule: need %d state sizes, got %d", s.Length+1, len(stateBytes))
	}
	tr, err := run(s, stateBytes)
	if err != nil {
		return 0, fmt.Errorf("schedule: %w", err)
	}
	return tr.PeakStateBytes, nil
}
