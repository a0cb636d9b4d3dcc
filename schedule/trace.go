package schedule

import "fmt"

// Trace is the result of simulating a schedule: cost and memory counters plus
// the per-step order in which adjoints were performed.
type Trace struct {
	Forwards      int64 // forward-step executions by Advance actions
	PeakSlots     int   // maximum simultaneously occupied checkpoint slots
	Restores      int   // number of Restore actions executed
	Snapshots     int   // number of Snapshot actions executed
	BackpropOrder []int // step indices in the order their adjoints ran
	// MaxStepExecutions is the largest number of times any single forward
	// step was executed by Advance actions (the observed repetition count).
	MaxStepExecutions int

	// Tier breakdown. Un-annotated schedules put every snapshot in TierRAM,
	// so PeakRAMSlots == PeakSlots and the disk counters stay zero.
	PeakRAMSlots  int // maximum simultaneously occupied RAM-tier slots
	PeakDiskSlots int // maximum simultaneously occupied disk-tier slots
	DiskWrites    int // snapshots into disk-tier slots
	DiskReads     int // restores from disk-tier slots
}

// Validator simulates a schedule action by action, checking that the list is
// a correct reversal of the chain: every adjoint step runs exactly once, in
// order L..1, with its input state available, never exceeding the slot
// budget. It is the only code that decides whether an action is legal: Run
// and PeakBytes feed it a whole schedule, and the chain executor applies each
// action to one before executing it, so what was checked and what ran are
// the same list.
type Validator struct {
	length       int
	slots        []validatorSlot
	current      int
	pending      int
	occupied     int
	occupiedRAM  int
	occupiedDisk int
	stepRuns     []int
	index        int
	trace        Trace
}

type validatorSlot struct {
	occupied bool
	state    int
	tier     Tier
}

// NewValidator starts a simulation of a chain of the given length with the
// given checkpoint-slot budget. The working state begins at the chain input.
// A negative budget is an empty one, and a negative length can never be
// completed: Finish reports it.
func NewValidator(length, slots int) *Validator {
	return &Validator{
		length:   length,
		slots:    make([]validatorSlot, max(slots, 0)),
		pending:  length,
		stepRuns: make([]int, max(length, 0)+1),
	}
}

// State returns the index of the working state: i means x_i, the output of
// step i, and 0 the chain input.
func (v *Validator) State() int { return v.current }

// Pending returns the number of adjoint steps not yet performed, which is
// also the step the next Backprop reverses.
func (v *Validator) Pending() int { return v.pending }

// Apply simulates one action, returning an error if it is illegal in the
// current simulated state. Once Apply has returned an error the validator's
// state is undefined and it must be discarded.
func (v *Validator) Apply(a Action) error {
	i := v.index
	v.index++
	switch a.Kind {
	case ActionAdvance:
		if a.Steps <= 0 {
			return fmt.Errorf("action %d (%s): non-positive advance", i, a)
		}
		if v.current+a.Steps > v.length {
			return fmt.Errorf("action %d (%s): advance past end of chain (state %d + %d > %d)", i, a, v.current, a.Steps, v.length)
		}
		for st := v.current + 1; st <= v.current+a.Steps; st++ {
			v.stepRuns[st]++
		}
		v.current += a.Steps
		v.trace.Forwards += int64(a.Steps)
	case ActionSnapshot:
		if a.Slot < 0 || a.Slot >= len(v.slots) {
			return fmt.Errorf("action %d (%s): slot out of range", i, a)
		}
		if v.slots[a.Slot].occupied {
			return fmt.Errorf("action %d (%s): slot already occupied by state %d", i, a, v.slots[a.Slot].state)
		}
		v.slots[a.Slot] = validatorSlot{occupied: true, state: v.current, tier: a.Tier}
		v.occupied++
		if v.occupied > v.trace.PeakSlots {
			v.trace.PeakSlots = v.occupied
		}
		if a.Tier == TierDisk {
			v.occupiedDisk++
			v.trace.DiskWrites++
			if v.occupiedDisk > v.trace.PeakDiskSlots {
				v.trace.PeakDiskSlots = v.occupiedDisk
			}
		} else {
			v.occupiedRAM++
			if v.occupiedRAM > v.trace.PeakRAMSlots {
				v.trace.PeakRAMSlots = v.occupiedRAM
			}
		}
		v.trace.Snapshots++
	case ActionRestore:
		if a.Slot == InputSlot {
			v.current = 0
		} else {
			if a.Slot < 0 || a.Slot >= len(v.slots) {
				return fmt.Errorf("action %d (%s): slot out of range", i, a)
			}
			if !v.slots[a.Slot].occupied {
				return fmt.Errorf("action %d (%s): restore from empty slot", i, a)
			}
			v.current = v.slots[a.Slot].state
			if v.slots[a.Slot].tier == TierDisk {
				v.trace.DiskReads++
			}
		}
		v.trace.Restores++
	case ActionFree:
		if a.Slot < 0 || a.Slot >= len(v.slots) {
			return fmt.Errorf("action %d (%s): slot out of range", i, a)
		}
		if !v.slots[a.Slot].occupied {
			return fmt.Errorf("action %d (%s): freeing an empty slot", i, a)
		}
		v.slots[a.Slot].occupied = false
		v.occupied--
		if v.slots[a.Slot].tier == TierDisk {
			v.occupiedDisk--
		} else {
			v.occupiedRAM--
		}
	case ActionBackprop:
		if v.pending == 0 {
			return fmt.Errorf("action %d (%s): all adjoint steps already performed", i, a)
		}
		if v.current != v.pending-1 {
			return fmt.Errorf("action %d (%s): adjoint of step %d requires working state %d, have %d", i, a, v.pending, v.pending-1, v.current)
		}
		v.trace.BackpropOrder = append(v.trace.BackpropOrder, v.pending)
		v.pending--
	default:
		return fmt.Errorf("action %d: unknown kind %d", i, a.Kind)
	}
	return nil
}

// Finish checks that the stream performed every adjoint step and returns the
// accumulated trace.
func (v *Validator) Finish() (*Trace, error) {
	if v.pending != 0 {
		return nil, fmt.Errorf("schedule incomplete: %d adjoint steps not performed", v.pending)
	}
	for _, runs := range v.stepRuns {
		if runs > v.trace.MaxStepExecutions {
			v.trace.MaxStepExecutions = runs
		}
	}
	return &v.trace, nil
}

// Run validates every action of the schedule and returns the trace. It is
// the one-shot form of the Validator.
func Run(s Schedule) (*Trace, error) {
	v := NewValidator(s.Length, s.Slots)
	for _, a := range s.Actions {
		if err := v.Apply(a); err != nil {
			return nil, err
		}
	}
	return v.Finish()
}
