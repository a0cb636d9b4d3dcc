package chain

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// residentPeak is a store that records the most bytes it reports resident
// after any Put.
type residentPeak struct {
	store.Store
	peak int64
}

func (r *residentPeak) Put(slot int, tier schedule.Tier, t *tensor.Tensor) error {
	err := r.Store.Put(slot, tier, t)
	r.peak = max(r.peak, r.Store.BytesResident())
	return err
}

// allRAM is s with every snapshot in the RAM tier: what the RAM store, which
// ignores tiers, holds.
func allRAM(s schedule.Schedule) schedule.Schedule {
	acts := append([]schedule.Action(nil), s.Actions...)
	for i := range acts {
		acts[i].Tier = schedule.TierRAM
	}
	s.Actions = acts
	return s
}

// slotPeak replays the slots of s alone: the most bytes its RAM-tier slots
// hold at once.
func slotPeak(s schedule.Schedule, size []int64) int64 {
	state := 0
	of, bytes := map[int]int{}, map[int]int64{} // slot: the state it holds, its RAM bytes
	var held, peak int64
	for _, a := range s.Actions {
		switch a.Kind {
		case schedule.ActionAdvance:
			state += a.Steps
		case schedule.ActionRestore:
			state = 0
			if a.Slot != schedule.InputSlot {
				state = of[a.Slot]
			}
		case schedule.ActionSnapshot:
			of[a.Slot], bytes[a.Slot] = state, 0
			if a.Tier == schedule.TierRAM {
				bytes[a.Slot] = size[state]
			}
			held += bytes[a.Slot]
			peak = max(peak, held)
		case schedule.ActionFree:
			held -= bytes[a.Slot]
		}
	}
	return peak
}

// buildUnevenChain makes an MLP of l cheap stages whose states differ in
// size, and returns it with its input and the bytes of x_0..x_l.
func buildUnevenChain(l int) (*Chain, *tensor.Tensor, []int64) {
	const batch = 2
	rng := tensor.NewRNG(uint64(l))
	width := func(i int) int { return 1 + (7*i+3)%9 }
	size := []int64{int64(batch * width(0) * 8)}
	var layers []nn.Layer
	for i := 1; i <= l; i++ {
		layers = append(layers, nn.NewLinear("fc", width(i-1), width(i), true, rng))
		size = append(size, int64(batch*width(i)*8))
	}
	return New(layers...), tensor.RandNormal(rng, 0, 1, batch, width(0)), size
}

// TestMemoryAccountIsTheTrace: on a chain whose states differ in size, the
// peak the executor reports is the peak the schedule's trace predicts —
// Trace.PeakStates states and PeakBytes bytes — for every planner and legal
// tunable at L 1…30, 50 and 152, through the tiered store and the RAM store.
// The RAM store ignores tiers, so on a schedule with a flash tier it equals
// the same rule with every slot in RAM. Beside it, the bytes each store
// reports resident confirm which slots were in RAM, and auto's forecast is
// the trace of the schedule it picked.
func TestMemoryAccountIsTheTrace(t *testing.T) {
	ts, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ram, tiered := &residentPeak{Store: store.NewRAM()}, &residentPeak{Store: ts}
	lengths := []int{50, 152}
	for l := 1; l <= 30; l++ {
		lengths = append(lengths, l)
	}
	for _, l := range lengths {
		c, x, size := buildUnevenChain(l)
		var scheds []schedule.Schedule
		add := func(name string, o plan.Options) {
			s, err := plan.Build(name, plan.ChainSpec{Length: l}, o)
			if err != nil {
				t.Fatalf("L=%d %s %+v: %v", l, name, o, err)
			}
			scheds = append(scheds, s)
		}
		add("storeall", plan.Options{})
		for s := 1; s < l; s++ {
			add("revolve", plan.Options{Slots: s})
		}
		for g := 1; g <= l; g++ {
			add("sequential", plan.Options{Segments: g})
		}
		for _, d := range []int{1, 2, 3, 5, 8, 13, 21} {
			for r := 1; r <= 3 && d < l; r++ {
				add("twolevel", plan.Options{Slots: r, DiskSlots: d})
			}
		}

		// Auto plans for uniform states of act bytes; its forecast is the
		// trace of what it picked, and its pick runs like any schedule.
		const weights, act = 1 << 12, 32
		budgets := []int{3, 5, 8, l + 1}
		if l <= 30 {
			budgets = budgets[:0]
			for states := 3; states <= l+2; states++ {
				budgets = append(budgets, states)
			}
		}
		uniform := make([]int64, l+1)
		for i := range uniform {
			uniform[i] = act
		}
		for _, states := range budgets {
			spec := plan.ChainSpec{Length: l, WeightBytes: weights, ActivationBytes: act}
			o := plan.Options{MemoryBudget: weights + int64(states)*act}
			choice, err := plan.AutoSelect(spec, o)
			if err != nil {
				t.Fatalf("L=%d, %d states: %v", l, states, err)
			}
			s, err := plan.Build("auto", spec, o)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := schedule.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			peak, err := schedule.PeakBytes(s, uniform)
			if err != nil {
				t.Fatal(err)
			}
			if choice.PeakRAMStates != tr.PeakStates || choice.PeakRAMBytes != weights+peak {
				t.Fatalf("L=%d, %d states: %s forecasts %d states / %d bytes, its trace %d / %d",
					l, states, s.Policy, choice.PeakRAMStates, choice.PeakRAMBytes, tr.PeakStates, weights+peak)
			}
			scheds = append(scheds, s)
		}

		for _, sched := range scheds {
			for _, st := range []*residentPeak{tiered, ram} {
				want := sched
				if st == ram {
					want = allRAM(sched)
				}
				tr, err := schedule.Run(want)
				if err != nil {
					t.Fatal(err)
				}
				peak, err := schedule.PeakBytes(want, size)
				if err != nil {
					t.Fatal(err)
				}
				st.peak = 0
				res, err := ExecuteWithStore(c, x, fixedLossGrad(7), sched, st, true)
				if err != nil {
					t.Fatalf("L=%d %s: %v", l, sched.Policy, err)
				}
				if res.PeakStates != tr.PeakStates || res.PeakStateBytes != peak {
					t.Fatalf("L=%d %s, %T: executed %d states / %d bytes, the trace says %d / %d",
						l, sched.Policy, st.Store, res.PeakStates, res.PeakStateBytes, tr.PeakStates, peak)
				}
				if slots := slotPeak(want, size); st.peak != slots {
					t.Fatalf("L=%d %s, %T: the store held up to %d bytes, the RAM-tier slots %d",
						l, sched.Policy, st.Store, st.peak, slots)
				}
			}
		}
	}
}
