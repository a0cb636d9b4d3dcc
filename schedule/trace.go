package schedule

import "fmt"

// Trace is the result of simulating a schedule: cost and memory counters plus
// the per-step order in which adjoints were performed.
type Trace struct {
	// Forwards counts the steps of untaped Advance actions: a taped forward
	// is the one each adjoint step already prices.
	Forwards      int64
	PeakSlots     int   // maximum simultaneously occupied checkpoint slots
	PeakTapes     int   // maximum simultaneously live step tapes
	Restores      int   // number of Restore actions executed
	Snapshots     int   // number of Snapshot actions executed
	BackpropOrder []int // step indices in the order their adjoints ran
	// MaxStepExecutions is the largest number of times any single forward
	// step was executed by Advance actions (the observed repetition count).
	MaxStepExecutions int

	// PeakStates is the most states held in RAM at once, after any action
	// or step of an advance: the chain input, the RAM-resident (not
	// TierDisk) slots, the live tapes, and the working state unless it is
	// one of those. It is the one memory rule of the planners, PeakBytes
	// and the chain executor; PeakStateBytes is the same peak in bytes, from
	// the state sizes the Validator was given (zero without them).
	PeakStates     int
	PeakStateBytes int64

	// Tier breakdown. Un-annotated schedules put every snapshot in TierRAM,
	// so PeakRAMSlots == PeakSlots and the disk counters stay zero.
	PeakRAMSlots  int // maximum simultaneously occupied RAM-tier slots
	PeakDiskSlots int // maximum simultaneously occupied disk-tier slots
	DiskWrites    int // snapshots into disk-tier slots
	DiskReads     int // restores from disk-tier slots
}

// Validator simulates a schedule action by action, checking that the list is
// a correct reversal of the chain: every adjoint step runs exactly once, in
// order L..1, with its tape live or its input state available, never
// exceeding the slot budget. It is the only code that decides whether an
// action is legal and that counts the states held (Trace.PeakStates): Run
// and PeakBytes feed it a whole schedule, and the chain executor checks each
// action before executing it and applies it after, so what was checked, run
// and counted is one list.
type Validator struct {
	length       int
	slots        []validatorSlot
	current      int
	pending      int
	occupiedRAM  int
	occupiedDisk int
	stepRuns     []int
	tapes        []bool // tapes[i]: step i's tape is live
	index        int
	trace        Trace

	size                []int64 // size[i]: bytes of x_i
	ramHolds            []int   // ramHolds[i]: RAM-resident slots holding x_i
	liveTapes           int
	ramBytes, tapeBytes int64
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
//
// stateBytes, when non-nil, holds the Length+1 sizes of x_0..x_L for
// Trace.PeakStateBytes. Entry i is read only once an applied action holds
// x_i, so a caller may fill the entries as the states appear.
func NewValidator(length, slots int, stateBytes []int64) *Validator {
	n := max(length, 0) + 1
	if stateBytes == nil {
		stateBytes = make([]int64, n)
	}
	v := &Validator{length: length, slots: make([]validatorSlot, max(slots, 0)), pending: length,
		stepRuns: make([]int, n), tapes: make([]bool, n), size: stateBytes, ramHolds: make([]int, n)}
	v.hold()
	return v
}

// State returns the index of the working state: i means x_i, the output of
// step i, and 0 the chain input.
func (v *Validator) State() int { return v.current }

// Pending returns the number of adjoint steps not yet performed, which is
// also the step the next Backprop reverses.
func (v *Validator) Pending() int { return v.pending }

// Check reports whether a is legal now, without applying it.
func (v *Validator) Check(a Action) error {
	i := v.index
	switch a.Kind {
	case ActionAdvance:
		if a.Steps <= 0 {
			return fmt.Errorf("action %d (%s): non-positive advance", i, a)
		}
		if v.current+a.Steps > v.length {
			return fmt.Errorf("action %d (%s): advance past end of chain (state %d + %d > %d)", i, a, v.current, a.Steps, v.length)
		}
	case ActionSnapshot, ActionRestore, ActionFree:
		switch {
		case a.Kind == ActionRestore && a.Slot == InputSlot: // the input is always held
		case a.Slot < 0 || a.Slot >= len(v.slots):
			return fmt.Errorf("action %d (%s): slot out of range", i, a)
		case a.Kind == ActionSnapshot && v.slots[a.Slot].occupied:
			return fmt.Errorf("action %d (%s): slot already occupied by state %d", i, a, v.slots[a.Slot].state)
		case a.Kind == ActionRestore && !v.slots[a.Slot].occupied:
			return fmt.Errorf("action %d (%s): restore from empty slot", i, a)
		case a.Kind == ActionFree && !v.slots[a.Slot].occupied:
			return fmt.Errorf("action %d (%s): freeing an empty slot", i, a)
		}
	case ActionBackprop:
		if v.pending == 0 {
			return fmt.Errorf("action %d (%s): all adjoint steps already performed", i, a)
		}
		if !v.tapes[v.pending] && v.current != v.pending-1 {
			return fmt.Errorf("action %d (%s): adjoint of step %d requires its tape or working state %d, have %d", i, a, v.pending, v.pending-1, v.current)
		}
	default:
		return fmt.Errorf("action %d: unknown kind %d", i, a.Kind)
	}
	return nil
}

// Apply checks one action and simulates it; an illegal action changes nothing
// and returns Check's error. A snapshot's Tier says whether it is held in
// RAM: the planners set the tier they intend, and the chain executor applies
// each snapshot with the tier its store actually kept it in.
func (v *Validator) Apply(a Action) error {
	if err := v.Check(a); err != nil {
		return err
	}
	v.index++
	switch a.Kind {
	case ActionAdvance:
		// An untaped advance overwrites whatever tape its steps held. The
		// count walks every step: an uneven chain can peak inside one.
		for range a.Steps {
			v.current++
			v.stepRuns[v.current]++
			v.trace.MaxStepExecutions = max(v.trace.MaxStepExecutions, v.stepRuns[v.current])
			v.setTape(v.current, a.Taped)
			v.hold()
		}
		if !a.Taped {
			v.trace.Forwards += int64(a.Steps)
		}
	case ActionSnapshot:
		v.slots[a.Slot] = validatorSlot{occupied: true, state: v.current, tier: a.Tier}
		v.occupy(v.slots[a.Slot], 1)
		v.trace.Snapshots++
		if a.Tier == TierDisk {
			v.trace.DiskWrites++
		}
	case ActionRestore:
		v.current = 0
		if a.Slot != InputSlot {
			v.current = v.slots[a.Slot].state
			if v.slots[a.Slot].tier == TierDisk {
				v.trace.DiskReads++
			}
		}
		v.trace.Restores++
	case ActionFree:
		// A freed slot still names the state it held.
		v.slots[a.Slot].occupied = false
		v.occupy(v.slots[a.Slot], -1)
	case ActionBackprop:
		v.setTape(v.pending, false)
		v.trace.BackpropOrder = append(v.trace.BackpropOrder, v.pending)
		v.pending--
	}
	v.hold()
	return nil
}

// occupy adds d (1 or -1) occupants of slot s's state to the slot counters
// and, for a RAM-tier slot, to the memory rule's running sums.
func (v *Validator) occupy(s validatorSlot, d int) {
	if s.tier == TierDisk {
		v.occupiedDisk += d
		v.trace.PeakDiskSlots = max(v.trace.PeakDiskSlots, v.occupiedDisk)
	} else {
		v.occupiedRAM += d
		v.trace.PeakRAMSlots = max(v.trace.PeakRAMSlots, v.occupiedRAM)
		v.ramHolds[s.state] += d
		v.ramBytes += int64(d) * v.size[s.state]
	}
	v.trace.PeakSlots = max(v.trace.PeakSlots, v.occupiedRAM+v.occupiedDisk)
}

// setTape makes step st's tape live or dead.
func (v *Validator) setTape(st int, live bool) {
	if v.tapes[st] {
		v.liveTapes, v.tapeBytes = v.liveTapes-1, v.tapeBytes-v.size[st]
	}
	if v.tapes[st] = live; live {
		v.liveTapes, v.tapeBytes = v.liveTapes+1, v.tapeBytes+v.size[st]
	}
	v.trace.PeakTapes = max(v.trace.PeakTapes, v.liveTapes)
}

// hold counts the states held right now into the trace's peaks: the input,
// the RAM-resident slots, the live tapes, and the working state unless it is
// one of those.
func (v *Validator) hold() {
	states, bytes := 1+v.occupiedRAM+v.liveTapes, v.size[0]+v.ramBytes+v.tapeBytes
	if c := v.current; c != 0 && v.ramHolds[c] == 0 && !v.tapes[c] {
		states++
		bytes += v.size[c]
	}
	v.trace.PeakStates = max(v.trace.PeakStates, states)
	v.trace.PeakStateBytes = max(v.trace.PeakStateBytes, bytes)
}

// Finish checks that the stream performed every adjoint step and returns the
// accumulated trace.
func (v *Validator) Finish() (*Trace, error) {
	if v.pending != 0 {
		return nil, fmt.Errorf("schedule incomplete: %d adjoint steps not performed", v.pending)
	}
	return &v.trace, nil
}

// Run validates every action of the schedule and returns the trace. It is
// the one-shot form of the Validator.
func Run(s Schedule) (*Trace, error) { return run(s, nil) }

// run feeds the whole schedule to a Validator with the given state sizes.
func run(s Schedule, stateBytes []int64) (*Trace, error) {
	v := NewValidator(s.Length, s.Slots, stateBytes)
	for _, a := range s.Actions {
		if err := v.Apply(a); err != nil {
			return nil, err
		}
	}
	return v.Finish()
}
