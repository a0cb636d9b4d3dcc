package checkpoint

import (
	"fmt"

	"github.com/edgeml/edgetrain/schedule"
)

// planner carries the mutable state used while emitting a schedule.
type planner struct {
	sched     schedule.Schedule
	current   int   // working state the emitted actions would leave us at
	freeSlots []int // stack of free slot indices
	slotOf    map[int]int
}

func newPlanner(l, slots int, policy string) *planner {
	p := &planner{
		sched:  schedule.Schedule{Length: l, Slots: slots, Policy: policy},
		slotOf: map[int]int{0: schedule.InputSlot},
	}
	for s := slots - 1; s >= 0; s-- {
		p.freeSlots = append(p.freeSlots, s)
	}
	return p
}

func (p *planner) emit(a schedule.Action) { p.sched.Actions = append(p.sched.Actions, a) }

// advanceTo emits the forward steps from the working state to target.
func (p *planner) advanceTo(target int) {
	p.emit(schedule.Action{Kind: schedule.ActionAdvance, Steps: target - p.current})
	p.current = target
}

func (p *planner) restore(state int) {
	slot, ok := p.slotOf[state]
	if !ok {
		panic(fmt.Sprintf("checkpoint: internal planner error: state %d not stored", state))
	}
	p.emit(schedule.Action{Kind: schedule.ActionRestore, Slot: slot})
	p.current = state
}

// ensure makes the working state equal to target, which must be a stored
// state or reachable by advancing from the current working state.
func (p *planner) ensure(target int) {
	if p.current == target {
		return
	}
	if _, stored := p.slotOf[target]; stored {
		p.restore(target)
		return
	}
	if p.current > target {
		panic(fmt.Sprintf("checkpoint: internal planner error: cannot reach state %d from %d", target, p.current))
	}
	p.advanceTo(target)
}

func (p *planner) snapshot(state int) int { return p.snapshotTier(state, schedule.TierRAM) }

// snapshotTier stores the current state in a free slot, annotating the
// emitted action with the storage tier the planner assigns to it.
func (p *planner) snapshotTier(state int, tier schedule.Tier) int {
	if len(p.freeSlots) == 0 {
		panic("checkpoint: internal planner error: no free slots")
	}
	if p.current != state {
		panic("checkpoint: internal planner error: snapshot of a non-current state")
	}
	slot := p.freeSlots[len(p.freeSlots)-1]
	p.freeSlots = p.freeSlots[:len(p.freeSlots)-1]
	p.emit(schedule.Action{Kind: schedule.ActionSnapshot, Slot: slot, Tier: tier})
	p.slotOf[state] = slot
	return slot
}

func (p *planner) free(state int) {
	slot, ok := p.slotOf[state]
	if !ok || slot == schedule.InputSlot {
		panic("checkpoint: internal planner error: freeing an unstored state")
	}
	p.emit(schedule.Action{Kind: schedule.ActionFree, Slot: slot})
	delete(p.slotOf, state)
	p.freeSlots = append(p.freeSlots, slot)
}

func (p *planner) backprop(step int) {
	p.ensure(step - 1)
	p.emit(schedule.Action{Kind: schedule.ActionBackprop})
}

// reverse emits the actions that perform the adjoints of steps
// base+1..base+length (in decreasing order), assuming state x_base is stored
// (or is the input) and `slots` checkpoint slots are free.
func (p *planner) reverse(base, length, slots int) {
	switch {
	case length == 0:
		return
	case length == 1:
		p.backprop(base + 1)
		return
	case slots == 0:
		// No slots: re-advance from x_base before each adjoint step.
		for step := base + length; step > base; step-- {
			if p.current > step-1 {
				p.ensure(base)
			}
			if p.current < step-1 {
				p.advanceTo(step - 1)
			}
			p.emit(schedule.Action{Kind: schedule.ActionBackprop})
		}
		return
	}
	j := OptimalFirstCheckpoint(length, slots)
	if j == 0 {
		// The extra slot does not help; plan as if it were not there.
		p.reverse(base, length, slots-1)
		return
	}
	p.ensure(base)
	p.advanceTo(base + j)
	p.snapshot(base + j)
	p.reverse(base+j, length-j, slots-1)
	p.free(base + j)
	p.reverse(base, j, slots)
}

// PlanRevolve builds an optimal (minimum-forwards) checkpointing schedule for
// a chain of l steps with at most c checkpoint slots, following the
// binomial/Revolve dynamic program. The returned schedule's traced Forwards
// equal MinForwards(l, c).
func PlanRevolve(l, c int) (schedule.Schedule, error) {
	if err := ValidateArgs(l, c); err != nil {
		return schedule.Schedule{}, err
	}
	if c > l-1 {
		c = max(l-1, 0)
	}
	p := newPlanner(l, c, "revolve")
	p.reverse(0, l, c)
	return p.sched, nil
}

// PlanStoreAll builds the no-checkpointing baseline, plain backpropagation:
// one taped forward sweep over the whole chain, then the backward sweep,
// whose adjoints consume the tapes. It uses no slot and no untaped forward.
func PlanStoreAll(l int) (schedule.Schedule, error) {
	if err := ValidateArgs(l, 0); err != nil {
		return schedule.Schedule{}, err
	}
	p := newPlanner(l, 0, "store-all")
	if l > 0 {
		p.emit(schedule.Action{Kind: schedule.ActionAdvance, Steps: l, Taped: true})
	}
	for range l {
		p.emit(schedule.Action{Kind: schedule.ActionBackprop})
	}
	return p.sched, nil
}

// PlanSequential builds the uniform-segment schedule equivalent to PyTorch's
// checkpoint_sequential with the given number of segments: segment inputs are
// checkpointed during the forward sweep, the last segment keeps all its
// activations, and each earlier segment is re-run in full (storing its
// intermediate states) just before it is backpropagated.
func PlanSequential(l, segments int) (schedule.Schedule, error) {
	if err := ValidateArgs(l, segments); err != nil {
		return schedule.Schedule{}, err
	}
	if segments < 1 {
		return schedule.Schedule{}, fmt.Errorf("checkpoint: PlanSequential requires at least 1 segment, got %d", segments)
	}
	if segments > l {
		segments = l
	}
	segLen := l / segments
	if segLen == 0 {
		segLen = 1
	}
	// Segment k (0-based) covers steps [starts[k]+1, starts[k+1]].
	var starts []int
	for k := 0; k < segments; k++ {
		starts = append(starts, k*segLen)
	}
	starts = append(starts, l) // sentinel: end of the last segment

	// Slot budget: segment-input checkpoints plus full storage of the longest
	// segment (the last one holds the remainder).
	lastLen := l - starts[segments-1]
	maxSeg := max(segLen, lastLen)
	slots := (segments - 1) + max(maxSeg-1, 0) + 1
	p := newPlanner(l, slots, fmt.Sprintf("sequential(%d)", segments))

	// Forward sweep: checkpoint each segment input (except x_0), then store
	// every intermediate state of the last segment.
	for k := 1; k < segments; k++ {
		p.ensure(starts[k-1])
		p.advanceTo(starts[k])
		p.snapshot(starts[k])
	}
	lastStart := starts[segments-1]
	for st := lastStart + 1; st <= l-1; st++ {
		p.advanceTo(st)
		p.snapshot(st)
	}

	// Backward sweep, segment by segment from the last to the first.
	for k := segments - 1; k >= 0; k-- {
		segStart, segEnd := starts[k], starts[k+1]
		if k != segments-1 {
			// Recompute the segment, storing its intermediate states.
			p.ensure(segStart)
			for st := segStart + 1; st <= segEnd-1; st++ {
				p.advanceTo(st)
				p.snapshot(st)
			}
		}
		for step := segEnd; step > segStart; step-- {
			p.backprop(step)
			if step-1 > segStart {
				p.free(step - 1)
			}
		}
		if segStart != 0 {
			p.free(segStart)
		}
	}
	return p.sched, nil
}
