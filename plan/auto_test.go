package plan_test

import (
	"strings"
	"testing"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
)

// autoSpec is a chain whose states are large enough that the budget grid
// spans meaningfully distinct regimes.
var autoSpec = plan.ChainSpec{Length: 24, WeightBytes: 1 << 20, ActivationBytes: 1 << 16}

// TestAutoBudgetGrid is the acceptance sweep: for every budget from
// store-all comfort down to minimal-Revolve, "auto" must return a strategy
// whose predicted resident footprint fits the budget and whose schedule is
// valid; below the minimal-Revolve floor it must refuse.
func TestAutoBudgetGrid(t *testing.T) {
	l := autoSpec.Length
	act := autoSpec.ActivationBytes
	minBudget := autoSpec.WeightBytes + 3*act          // minimal Revolve: input + working + 1 slot
	maxBudget := autoSpec.WeightBytes + int64(l+4)*act // store-all with slack
	sawStoreAll, sawSpill, sawRecompute := false, false, false
	for budget := minBudget; budget <= maxBudget; budget += act / 2 {
		choice, err := plan.AutoSelect(autoSpec, plan.Options{MemoryBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if choice.PeakRAMBytes > budget {
			t.Fatalf("budget %d: selected %s with predicted footprint %d over budget", budget, choice.Strategy, choice.PeakRAMBytes)
		}
		switch choice.Strategy {
		case "storeall":
			sawStoreAll = true
		case "twolevel":
			sawSpill = true
		case "revolve":
			sawRecompute = true
		default:
			t.Fatalf("budget %d: unexpected strategy %q", budget, choice.Strategy)
		}
		sched, tr, err := plan.Validate("auto", autoSpec, plan.Options{MemoryBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: invalid auto schedule: %v", budget, err)
		}
		if !strings.HasPrefix(sched.Policy, "auto:") {
			t.Fatalf("auto schedule policy %q does not reveal the selection", sched.Policy)
		}
		// The executed RAM residency (input + working state + RAM-tier
		// checkpoints, homogeneous states) must match the prediction.
		states := tr.PeakRAMSlots + 2
		if choice.Strategy == "storeall" {
			states = l + 1 // the working state aliases a stored one
		}
		if got := autoSpec.WeightBytes + int64(states)*act; got > budget {
			t.Fatalf("budget %d: schedule %s retains %d states, %d bytes over budget",
				budget, sched.Policy, states, got-budget)
		}
		if choice.Strategy == "twolevel" && tr.PeakDiskSlots == 0 {
			t.Fatalf("budget %d: twolevel selection produced no disk-tier snapshots", budget)
		}
	}
	if !sawStoreAll || !sawSpill || !sawRecompute {
		t.Fatalf("budget grid did not span all regimes: storeall=%v twolevel=%v revolve=%v",
			sawStoreAll, sawSpill, sawRecompute)
	}

	// Below the floor, auto must refuse rather than overfit.
	if _, err := plan.AutoSelect(autoSpec, plan.Options{MemoryBudget: minBudget - 1}); err == nil {
		t.Fatal("budget below minimal-Revolve accepted")
	}
	if _, err := plan.Build("auto", autoSpec, plan.Options{MemoryBudget: minBudget - 1}); err == nil {
		t.Fatal("Build below minimal-Revolve accepted")
	}
}

// TestAutoTimeMonotoneInBudget: more memory never predicts a slower plan.
func TestAutoTimeMonotoneInBudget(t *testing.T) {
	prev := -1.0
	act := autoSpec.ActivationBytes
	for budget := autoSpec.WeightBytes + 3*act; budget <= autoSpec.WeightBytes+30*act; budget += act {
		choice, err := plan.AutoSelect(autoSpec, plan.Options{MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && choice.Time > prev+1e-9 {
			t.Fatalf("budget %d: predicted time %.3f worse than smaller budget's %.3f", budget, choice.Time, prev)
		}
		prev = choice.Time
	}
}

func TestAutoDefaults(t *testing.T) {
	// Without a budget, the Waggle node's 2 GB is assumed: this small chain
	// fits store-all easily.
	choice, err := plan.AutoSelect(autoSpec, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Strategy != "storeall" {
		t.Fatalf("2 GB default should pick storeall for a 2.5 MB chain, got %s", choice.Strategy)
	}
	if choice.Budget != memmodel.EdgeDeviceMemoryBytes {
		t.Fatalf("default budget %d, want the Waggle capacity %d", choice.Budget, memmodel.EdgeDeviceMemoryBytes)
	}

	// Without state sizes, an explicit budget cannot be enforced.
	if _, err := plan.AutoSelect(plan.ChainSpec{Length: 10}, plan.Options{MemoryBudget: 1 << 20}); err == nil {
		t.Fatal("budget without ActivationBytes accepted")
	}
	// ...but budgetless planning falls back to store-all instead of failing,
	// so the table-wide conformance grid can plan "auto" without options.
	sched, err := plan.Build("auto", plan.ChainSpec{Length: 10}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schedule.Run(sched); err != nil {
		t.Fatal(err)
	}

	// Trivial chains plan without any information...
	for _, l := range []int{0, 1} {
		if _, err := plan.Build("auto", plan.ChainSpec{Length: l}, plan.Options{}); err != nil {
			t.Fatalf("auto on trivial chain l=%d: %v", l, err)
		}
	}
	// ...but still honour the fitting contract when the weights alone bust
	// the budget, whether or not the state size is known.
	for _, row := range []struct {
		name string
		spec plan.ChainSpec
		o    plan.Options
	}{
		{"trivial chain", plan.ChainSpec{Length: 1, WeightBytes: 10 << 20, ActivationBytes: 1 << 10}, plan.Options{MemoryBudget: 1 << 20}},
		{"weights over the default budget, no state size", plan.ChainSpec{Length: 10, WeightBytes: 3 << 30}, plan.Options{}},
	} {
		if choice, err := plan.AutoSelect(row.spec, row.o); err == nil {
			t.Fatalf("%s over budget accepted: %s", row.name, choice)
		}
	}
}

// TestAutoPrefersTwoLevelWhenRAMStarved pins the paper's Section VI story:
// with RAM for only a few states on a long chain, spilling boundaries to
// flash must beat pure in-RAM Revolve with flash priced at one forward step
// per state written or read.
func TestAutoPrefersTwoLevelWhenRAMStarved(t *testing.T) {
	spec := plan.ChainSpec{Length: 48, WeightBytes: 0, ActivationBytes: 1 << 16}
	choice, err := plan.AutoSelect(spec, plan.Options{MemoryBudget: 4 * spec.ActivationBytes})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Strategy != "twolevel" {
		t.Fatalf("RAM-starved long chain picked %s, want twolevel", choice.Strategy)
	}
	if choice.DiskSlots < 1 || choice.Slots != 2 {
		t.Fatalf("unexpected tunables: %+v", choice)
	}
}

// TestAutoPredictsWhatItRuns: the price auto ranks its pick by is the price
// of what the executor runs, flash reads and writes included, and its flash
// and RAM footprints are the ones that schedule's trace counts. A store-all
// pick's schedule
// is one taped sweep: l taped forwards and no advance, the baseline.
// A twolevel pick must be strictly cheaper than Revolve at the same RAM
// slots.
func TestAutoPredictsWhatItRuns(t *testing.T) {
	const weights, act = 1 << 20, 1 << 16
	m := checkpoint.DefaultCostModel
	var lengths []int
	for l := 2; l <= 30; l++ {
		lengths = append(lengths, l)
	}
	lengths = append(lengths, 50, 152)
	for _, l := range lengths {
		var budgets []int // in states, from the minimal-Revolve floor
		for states := 3; states <= l+2; states++ {
			budgets = append(budgets, states)
		}
		if l == 152 {
			budgets = []int{3, 5, 8, l + 1}
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
			sched, tr, err := plan.Validate("auto", spec, o)
			if err != nil {
				t.Fatalf("L=%d, %d states: %v", l, states, err)
			}
			got := m.TraceTime(l, tr)
			if got != choice.Time || choice.Rho != choice.Time/m.BaselineTime(l) {
				t.Fatalf("L=%d, %d states: %s predicted at %g (rho %g), its schedule %s runs at %g",
					l, states, choice.Strategy, choice.Time, choice.Rho, sched.Policy, got)
			}
			if want := int64(tr.PeakDiskSlots) * act; choice.DiskBytes != want {
				t.Fatalf("L=%d, %d states: predicted %d flash bytes, the schedule occupies %d", l, states, choice.DiskBytes, want)
			}
			peak, err := schedule.PeakBytes(sched, uniform)
			if err != nil {
				t.Fatal(err)
			}
			if choice.PeakRAMStates != tr.PeakStates || choice.PeakRAMBytes != weights+peak {
				t.Fatalf("L=%d, %d states: predicted %d states / %d bytes resident, the schedule holds %d / %d",
					l, states, choice.PeakRAMStates, choice.PeakRAMBytes, tr.PeakStates, weights+peak)
			}
			if choice.Strategy != "twolevel" {
				continue
			}
			revolve, err := checkpoint.PlanRevolve(l, choice.Slots)
			if err != nil {
				t.Fatal(err)
			}
			rtr, err := schedule.Run(revolve)
			if err != nil {
				t.Fatal(err)
			}
			if rt := m.TraceTime(l, rtr); choice.Time >= rt {
				t.Fatalf("L=%d, %d states: twolevel(ram=%d, disk=%d) at %g is no cheaper than revolve(%d) at %g",
					l, states, choice.Slots, choice.DiskSlots, choice.Time, choice.Slots, rt)
			}
		}
	}
}

// BenchmarkAutoSelect times one selection: a roomy budget that store-all
// fits, and a budget of 5 states on a short and on a long chain, where every
// flash-checkpoint count is planned and traced.
func BenchmarkAutoSelect(b *testing.B) {
	const weights, act = 1 << 20, 1 << 16
	for _, c := range []struct {
		name   string
		l      int
		budget int64
	}{
		{"L=21/default", 21, 0},
		{"L=21/states=5", 21, weights + 5*act},
		{"L=152/states=5", 152, weights + 5*act},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec := plan.ChainSpec{Length: c.l, WeightBytes: weights, ActivationBytes: act}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.AutoSelect(spec, plan.Options{MemoryBudget: c.budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
