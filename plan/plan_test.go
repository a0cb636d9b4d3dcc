package plan_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
)

// strategyOpts returns options that make the named strategy plannable at the
// given memory tunable. Strategies without tunables get the zero Options.
func strategyOpts(name string, slots int) plan.Options {
	switch name {
	case "revolve":
		return plan.Options{Slots: slots}
	case "sequential":
		return plan.Options{Segments: slots + 1}
	case "twolevel":
		return plan.Options{Slots: slots, DiskSlots: 2}
	default:
		return plan.Options{}
	}
}

// TestStrategyConformance is the table-wide conformance suite: every
// strategy, over a grid of chain lengths and slot tunables, must
// produce a schedule that the validating trace simulator accepts — each step
// back-propagated exactly once in order L..1, no slot misuse, and a peak slot
// usage within the schedule's declared budget.
func TestStrategyConformance(t *testing.T) {
	lengths := []int{1, 2, 3, 5, 8, 13, 21, 34, 55}
	slotGrid := []int{1, 2, 3, 5}
	for _, name := range plan.Strategies() {
		for _, l := range lengths {
			for _, slots := range slotGrid {
				t.Run(fmt.Sprintf("%s/l=%d/slots=%d", name, l, slots), func(t *testing.T) {
					spec := plan.ChainSpec{Length: l}
					sched, err := plan.Build(name, spec, strategyOpts(name, slots))
					if err != nil {
						t.Fatalf("plan failed: %v", err)
					}
					if sched.Length != l {
						t.Fatalf("schedule length %d, want %d", sched.Length, l)
					}
					tr, err := schedule.Run(sched)
					if err != nil {
						t.Fatalf("invalid schedule: %v", err)
					}
					if len(tr.BackpropOrder) != l {
						t.Fatalf("%d adjoint steps performed, want %d", len(tr.BackpropOrder), l)
					}
					for i, step := range tr.BackpropOrder {
						if step != l-i {
							t.Fatalf("adjoint order %v is not L..1", tr.BackpropOrder)
						}
					}
					if tr.PeakSlots > sched.Slots {
						t.Fatalf("peak slot usage %d exceeds declared budget %d", tr.PeakSlots, sched.Slots)
					}
				})
			}
		}
	}
}

func TestRevolveMatchesOptimum(t *testing.T) {
	for _, l := range []int{2, 10, 50, 152} {
		for _, slots := range []int{1, 3, 8} {
			_, tr, err := plan.Validate("revolve", plan.ChainSpec{Length: l}, plan.Options{Slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			if want := checkpoint.MinForwards(l, slots); tr.Forwards != want {
				t.Fatalf("revolve(l=%d, c=%d): %d forwards, optimum %d", l, slots, tr.Forwards, want)
			}
		}
	}
}

func TestRhoBudgetSelection(t *testing.T) {
	const l = 152
	want := checkpoint.MinSlotsForRho(l, 2.0, checkpoint.DefaultCostModel)
	_, tr, err := plan.Validate("revolve", plan.ChainSpec{Length: l}, plan.Options{Rho: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Forwards != want.Forwards {
		t.Fatalf("rho-budgeted revolve ran %d forwards, want %d", tr.Forwards, want.Forwards)
	}
	if _, _, err := plan.Validate("sequential", plan.ChainSpec{Length: l}, plan.Options{Rho: 2.0}); err != nil {
		t.Fatalf("sequential with rho budget: %v", err)
	}
}

func TestMissingOptionsAreRejected(t *testing.T) {
	spec := plan.ChainSpec{Length: 20}
	for _, name := range []string{"revolve", "sequential", "twolevel"} {
		if _, err := plan.Build(name, spec, plan.Options{}); err == nil {
			t.Fatalf("%s without options should fail for a nontrivial chain", name)
		}
	}
	// Trivial chains need no tunables at all.
	for _, name := range plan.Strategies() {
		if _, _, err := plan.Validate(name, plan.ChainSpec{Length: 1}, plan.Options{}); err != nil {
			t.Fatalf("%s must plan a length-1 chain without options: %v", name, err)
		}
	}
}

// TestTwoLevelStaysWithinTiers: a two-level plan keeps to its RAM and flash
// slot budgets, and its flash checkpoints buy back recompute over RAM-only
// Revolve at the same RAM budget. With no flash checkpoints it is Revolve,
// with no flash traffic.
func TestTwoLevelStaysWithinTiers(t *testing.T) {
	const l, ram = 60, 3
	revolve, err := checkpoint.PlanRevolve(l, ram)
	if err != nil {
		t.Fatal(err)
	}
	ramOnly, err := schedule.Run(revolve)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		disk int
	}{
		{"zero flash is revolve", 0},
		{"flash buys back recompute", 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, err := checkpoint.PlanTwoLevel(l, row.disk, ram)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := schedule.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if tr.PeakRAMSlots > ram || tr.PeakDiskSlots > row.disk {
				t.Fatalf("two-level peak %d RAM + %d flash slots exceeds %d + %d",
					tr.PeakRAMSlots, tr.PeakDiskSlots, ram, row.disk)
			}
			if row.disk == 0 {
				if !reflect.DeepEqual(s.Actions, revolve.Actions) || tr.DiskWrites+tr.DiskReads != 0 {
					t.Fatalf("twolevel(0) is not revolve(%d): %d forwards, %d flash writes, %d flash reads",
						ram, tr.Forwards, tr.DiskWrites, tr.DiskReads)
				}
				return
			}
			if tr.Forwards >= ramOnly.Forwards {
				t.Fatalf("two-level (%d forwards) should recompute less than RAM-only revolve (%d)", tr.Forwards, ramOnly.Forwards)
			}
		})
	}
}

// TestRegistry pins the static strategy table: exactly the five built-ins,
// in sorted order, each with a description, and a mistyped or deleted name
// is diagnosable from the error.
func TestRegistry(t *testing.T) {
	names := plan.Strategies()
	want := []string{"auto", "revolve", "sequential", "storeall", "twolevel"}
	if !slices.Equal(names, want) {
		t.Fatalf("strategies %v, want exactly %v", names, want)
	}
	for _, unknown := range []string{"nope", "periodic", "logspaced"} {
		_, err := plan.Build(unknown, plan.ChainSpec{Length: 3}, plan.Options{})
		if err == nil {
			t.Fatalf("unknown strategy %q accepted", unknown)
		}
		for _, name := range want {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("unknown-strategy error should list %q, got %v", name, err)
			}
		}
	}
	infos := plan.Describe()
	if len(infos) != len(names) {
		t.Fatalf("Describe returned %d infos for %d strategies", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] || info.Description == "" {
			t.Fatalf("incomplete StrategyInfo: %+v", info)
		}
	}
}

// TestConcurrentPlanning: fleet workers plan from their own goroutines, and
// every Revolve-based planner reads and grows one shared DP table. Goroutines
// building different (length, slots) at once must get the action lists a
// serial build gets — run under -race.
func TestConcurrentPlanning(t *testing.T) {
	type job struct {
		name string
		l    int
		o    plan.Options
	}
	var jobs []job
	for _, l := range []int{5, 21, 50, 152, 233} {
		for _, slots := range []int{1, 2, 3, 5, 8} {
			jobs = append(jobs,
				job{"revolve", l, plan.Options{Slots: slots}},
				job{"twolevel", l, plan.Options{Slots: slots, DiskSlots: 3}},
				job{"sequential", l, plan.Options{Segments: slots + 1}})
		}
	}
	got := make([]schedule.Schedule, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := plan.Build(j.name, plan.ChainSpec{Length: j.l}, j.o)
			if err != nil {
				t.Errorf("%s l=%d %+v: %v", j.name, j.l, j.o, err)
			}
			got[i] = s
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		want, err := plan.Build(j.name, plan.ChainSpec{Length: j.l}, j.o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s l=%d %+v: concurrent build differs from the serial one", j.name, j.l, j.o)
		}
	}
}
