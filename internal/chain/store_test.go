package chain

import (
	"os"
	"reflect"
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// buildUniformChain makes an MLP whose every inter-stage state has exactly
// the same byte size as the input, so peak-memory expectations are exact
// multiples of one state.
func buildUniformChain(seed uint64, l int) (*Chain, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	var layers []nn.Layer
	for i := 0; i < l; i++ {
		layers = append(layers, nn.NewLinear(string(rune('a'+i)), 8, 8, true, rng))
	}
	return New(layers...), tensor.RandNormal(rng, 0, 1, 4, 8)
}

// TestPeakStateBytesCountsWorkingState pins the fix for the peak-memory
// undercount: the live working state produced by an Advance is resident RAM
// even though it sits in no checkpoint slot, so the peak of a revolve
// execution is input + slots + working state — not input + slots.
func TestPeakStateBytesCountsWorkingState(t *testing.T) {
	const l, slots = 6, 2
	c, x := buildUniformChain(29, l)
	s := x.Bytes()
	sched := buildSched(t, "revolve", l, plan.Options{Slots: slots})
	res, err := Execute(c, x, fixedLossGrad(5), sched, true)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(slots+2) * s // input + 2 checkpoints + the transient
	if res.PeakStateBytes != want {
		t.Fatalf("PeakStateBytes = %d (%.1f states), want %d (%d states): the working state must be counted",
			res.PeakStateBytes, float64(res.PeakStateBytes)/float64(s), want, slots+2)
	}
	// The old accounting (checkpoints + input only) is strictly smaller.
	if res.PeakStateBytes <= int64(slots+1)*s {
		t.Fatal("peak accounting regressed to checkpoints-only")
	}

	// ExecutePlain already counted every state; unchanged.
	cPlain, _ := buildUniformChain(29, l)
	plain, err := ExecutePlain(cPlain, x, fixedLossGrad(5), true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PeakStateBytes != int64(l+1)*s {
		t.Fatalf("plain PeakStateBytes = %d, want %d", plain.PeakStateBytes, int64(l+1)*s)
	}
}

// TestDiskStoreExecutionMatchesRAM runs the same revolve schedule through
// the in-RAM reference store and the serialize-everything disk store: the
// gradients must be bit-identical and the disk execution must retain only
// the input and the working state in RAM.
func TestDiskStoreExecutionMatchesRAM(t *testing.T) {
	const l = 9
	cRAM, x := buildUniformChain(31, l)
	cDisk, _ := buildUniformChain(31, l)
	loss := fixedLossGrad(17)
	sched := buildSched(t, "revolve", l, plan.Options{Slots: 3})

	ram, err := Execute(cRAM, x, loss, sched, true)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	disk, err := ExecuteWithStore(cDisk, x, loss, sched, ds, true)
	if err != nil {
		t.Fatal(err)
	}

	if tensor.MaxAbsDiff(ram.Output, disk.Output) != 0 {
		t.Fatal("disk-store output differs from RAM execution")
	}
	if tensor.MaxAbsDiff(ram.InputGrad, disk.InputGrad) != 0 {
		t.Fatal("disk-store input gradient differs from RAM execution")
	}
	gr, gd := gradSnapshot(cRAM), gradSnapshot(cDisk)
	for i := range gr {
		if tensor.MaxAbsDiff(gr[i], gd[i]) != 0 {
			t.Fatalf("disk-store parameter gradient %d differs", i)
		}
	}
	if want := 2 * x.Bytes(); disk.PeakStateBytes != want {
		t.Fatalf("disk execution PeakStateBytes = %d, want %d (input + working state only)", disk.PeakStateBytes, want)
	}
	if disk.DiskWrites == 0 || disk.DiskReads == 0 || disk.PeakDiskBytes == 0 {
		t.Fatalf("disk execution reported no spill traffic: %+v", disk)
	}
	if ram.PeakStateBytes <= disk.PeakStateBytes {
		t.Fatal("spilling every checkpoint must shrink resident RAM")
	}
}

// TestTwoLevelSpillStaysUnderBudget is the end-to-end acceptance test: a
// twolevel schedule executed with a tiered store produces gradients equal to
// plain backpropagation, keeps its resident RAM under a budget that
// store-all provably exceeds, and really moves the flash tier to disk.
func TestTwoLevelSpillStaysUnderBudget(t *testing.T) {
	const l, ramSlots, diskSlots = 16, 2, 3
	cPlain, x := buildUniformChain(37, l)
	cSpill, _ := buildUniformChain(37, l)
	loss := fixedLossGrad(11)
	s := x.Bytes()
	weights := 2 * nn.ParamBytes(cSpill.Stages)
	budget := weights + int64(ramSlots+2)*s // input + working + RAM tier

	plain, err := ExecutePlain(cPlain, x, loss, true)
	if err != nil {
		t.Fatal(err)
	}
	if weights+plain.PeakStateBytes <= budget {
		t.Fatalf("test setup broken: store-all (%d) fits the budget (%d)", weights+plain.PeakStateBytes, budget)
	}

	ts, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	sched := buildSched(t, "twolevel", l, plan.Options{Slots: ramSlots, DiskSlots: diskSlots})
	res, err := ExecuteWithStore(cSpill, x, loss, sched, ts, true)
	if err != nil {
		t.Fatal(err)
	}

	// Gradient equivalence, bit-exact through the serialization round trip.
	if tensor.MaxAbsDiff(plain.Output, res.Output) != 0 {
		t.Fatal("spilled output differs from plain execution")
	}
	if tensor.MaxAbsDiff(plain.InputGrad, res.InputGrad) != 0 {
		t.Fatal("spilled input gradient differs from plain execution")
	}
	gp, gs := gradSnapshot(cPlain), gradSnapshot(cSpill)
	for i := range gp {
		if tensor.MaxAbsDiff(gp[i], gs[i]) != 0 {
			t.Fatalf("spilled parameter gradient %d differs", i)
		}
	}

	// Budget: resident RAM stays inside it while store-all does not.
	if weights+res.PeakStateBytes > budget {
		t.Fatalf("spilled execution resident peak %d exceeds budget %d", weights+res.PeakStateBytes, budget)
	}
	// Spill traffic really happened, sized like the flash boundaries.
	if res.DiskWrites != diskSlots {
		t.Fatalf("DiskWrites = %d, want %d boundary spills", res.DiskWrites, diskSlots)
	}
	if res.DiskReads < diskSlots {
		t.Fatalf("DiskReads = %d, want at least one read per boundary (%d)", res.DiskReads, diskSlots)
	}
	if res.PeakDiskBytes < int64(diskSlots)*s {
		t.Fatalf("PeakDiskBytes = %d, want at least %d", res.PeakDiskBytes, int64(diskSlots)*s)
	}

	// The same chain through the budget-aware policy front door.
	ts2, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close()
	cAuto, _ := buildUniformChain(37, l)
	auto, err := Step(cAuto, x, loss, Policy{Kind: "auto", MemoryBudget: budget, Store: ts2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(plain.InputGrad, auto.InputGrad) != 0 {
		t.Fatal("auto-planned spilled execution gradient differs from plain")
	}
	if weights+auto.PeakStateBytes > budget {
		t.Fatalf("auto-planned resident peak %d exceeds budget %d", weights+auto.PeakStateBytes, budget)
	}
}

// TestStepSpillsDiskTiersByDefault pins that a policy whose plan assigns
// disk tiers really spills even when the caller sets no Store: the budget a
// tight "auto" selection was made against must hold.
func TestStepSpillsDiskTiersByDefault(t *testing.T) {
	const l = 24 // long enough that a 4-state budget selects twolevel
	c, x := buildUniformChain(41, l)
	s := x.Bytes()
	weights := 2 * nn.ParamBytes(c.Stages)
	budget := weights + 4*s

	res, err := Step(c, x, fixedLossGrad(13), Policy{Kind: "auto", MemoryBudget: budget}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskWrites == 0 {
		t.Fatal("tight auto plan executed without spilling despite nil Policy.Store")
	}
	if weights+res.PeakStateBytes > budget {
		t.Fatalf("default-store execution resident peak %d exceeds budget %d", weights+res.PeakStateBytes, budget)
	}

	// Same for an explicit twolevel policy.
	c2, _ := buildUniformChain(41, l)
	res, err = Step(c2, x, fixedLossGrad(13), Policy{Kind: "twolevel", Slots: 2, DiskSlots: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskWrites != 3 {
		t.Fatalf("twolevel policy spilled %d boundaries, want 3", res.DiskWrites)
	}

	// The other end of the same rule: a roomy budget resolves "auto" to
	// store-all, and store-all without a store is plain backpropagation (L
	// forwards, every state retained) — not the store-all schedule, whose
	// every adjoint re-runs its stage.
	c3, _ := buildUniformChain(41, l)
	res, err = Step(c3, x, fixedLossGrad(13), Policy{Kind: "auto", MemoryBudget: weights + int64(l+1)*s}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardEvals != l || res.PeakStates != l+1 || res.DiskWrites != 0 {
		t.Fatalf("roomy auto budget did not run plain backpropagation: %+v", res)
	}
}

// TestPolicyOptionMapping pins the Policy → plan.Options / plan.ChainSpec
// mapping field by field: every Policy tunable lands in the option of the
// same meaning, the memory shape flows into the spec — and every built-in
// strategy planned through a Policy is the schedule plan.Build gives.
func TestPolicyOptionMapping(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		want plan.Options
	}{
		{"zero policy maps to zero options", Policy{}, plan.Options{}},
		{"slots", Policy{Slots: 5}, plan.Options{Slots: 5}},
		{"segments", Policy{Segments: 4}, plan.Options{Segments: 4}},
		{"disk slots", Policy{DiskSlots: 7}, plan.Options{DiskSlots: 7}},
		{"rho", Policy{Rho: 1.5}, plan.Options{Rho: 1.5}},
		{"memory budget", Policy{MemoryBudget: 1 << 20}, plan.Options{MemoryBudget: 1 << 20}},
		{"everything at once",
			Policy{Slots: 2, Segments: 3, DiskSlots: 5, Rho: 1.25, MemoryBudget: 4096},
			plan.Options{Slots: 2, Segments: 3, DiskSlots: 5, Rho: 1.25, MemoryBudget: 4096}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.pol.options(); got != tc.want {
				t.Fatalf("options mismatch:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}

	c, x := buildUniformChain(3, 9)
	pol := Policy{WeightBytes: 1000, ActivationBytes: 64}
	if got, want := pol.Spec(c, x), (plan.ChainSpec{Length: 9, WeightBytes: 1000, ActivationBytes: 64}); got != want {
		t.Fatalf("spec mapping wrong: %+v", got)
	}
	if got, want := (Policy{}).Spec(c, x), (plan.ChainSpec{Length: 9, WeightBytes: 2 * nn.ParamBytes(c.Stages), ActivationBytes: x.Bytes()}); got != want {
		t.Fatalf("spec defaults wrong: %+v, want %+v", got, want)
	}

	builtins := []struct {
		pol  Policy
		opts plan.Options
	}{
		{Policy{Kind: "storeall"}, plan.Options{}},
		{Policy{Kind: "revolve", Slots: 3}, plan.Options{Slots: 3}},
		{Policy{Kind: "sequential", Segments: 3}, plan.Options{Segments: 3}},
		{Policy{Kind: "twolevel", Slots: 2, DiskSlots: 3}, plan.Options{Slots: 2, DiskSlots: 3}},
	}
	const l = 14
	for _, b := range builtins {
		t.Run(b.pol.Kind, func(t *testing.T) {
			fromPolicy, err := b.pol.Plan(l)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := plan.Build(b.pol.Kind, plan.ChainSpec{Length: l}, b.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromPolicy, direct) {
				t.Fatalf("policy-planned schedule differs from the direct plan:\n policy %v\n direct %v", fromPolicy, direct)
			}
		})
	}
}

// TestMalformedSchedulesLeaveStoreClean runs one table of malformed schedules
// through the executor on a reused RAM store and a reused tiered store.
// schedule.Validator judges every action before it is executed, so each case
// is refused with an error — none panics; the advance past the chain end used
// to index past the stages — after its first four actions filled two slots,
// one of them on flash. The failed step must release what it occupied
// (resident bytes and the spill directory back where they started), and the
// next well-formed step on the same store must succeed.
func TestMalformedSchedulesLeaveStoreClean(t *testing.T) {
	const l = 5
	valid, err := Policy{Kind: "twolevel", Slots: 1, DiskSlots: 2}.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	if last := valid.Actions[len(valid.Actions)-1]; last.Kind != schedule.ActionBackprop {
		t.Fatalf("test setup: plan ends with %s, not an adjoint", last)
	}
	// The prefix leaves the working state at x_2 with slot 0 on flash and
	// slot 1 in RAM, so every refusal has something to clean up.
	filled := func(bad ...schedule.Action) schedule.Schedule {
		actions := []schedule.Action{
			{Kind: schedule.ActionAdvance, Steps: 1},
			{Kind: schedule.ActionSnapshot, Slot: 0, Tier: schedule.TierDisk},
			{Kind: schedule.ActionAdvance, Steps: 1},
			{Kind: schedule.ActionSnapshot, Slot: 1},
		}
		return schedule.Schedule{Length: l, Slots: 3, Policy: "malformed", Actions: append(actions, bad...)}
	}
	tooMany, tooFew := valid, valid
	tooMany.Actions = append(append([]schedule.Action(nil), valid.Actions...), schedule.Action{Kind: schedule.ActionBackprop})
	tooFew.Actions = valid.Actions[:len(valid.Actions)-1]
	cases := []struct {
		name  string
		sched schedule.Schedule
	}{
		{"advance past the end", filled(schedule.Action{Kind: schedule.ActionAdvance, Steps: l})},
		{"non-positive advance", filled(schedule.Action{Kind: schedule.ActionAdvance})},
		{"snapshot into an occupied slot", filled(schedule.Action{Kind: schedule.ActionSnapshot, Slot: 1})},
		{"snapshot into an out-of-range slot", filled(schedule.Action{Kind: schedule.ActionSnapshot, Slot: 7})},
		{"restore of an empty slot", filled(schedule.Action{Kind: schedule.ActionRestore, Slot: 2})},
		{"free of an empty slot", filled(schedule.Action{Kind: schedule.ActionFree, Slot: 2})},
		{"backprop from the wrong state", filled(schedule.Action{Kind: schedule.ActionBackprop})},
		{"one adjoint too many", tooMany},
		{"one adjoint too few", tooFew},
	}

	tiered, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	spillFiles := func() int {
		entries, err := os.ReadDir(tiered.Dir())
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	for _, st := range []store.Store{store.NewRAM(), tiered} {
		c, x := buildUniformChain(43, l)
		startBytes, startFiles := st.BytesResident(), spillFiles()
		for _, tc := range cases {
			if _, err := schedule.Run(tc.sched); err == nil {
				t.Fatalf("%s: test setup: schedule.Run accepts the schedule", tc.name)
			}
			res, err := ExecuteWithStore(c, x, fixedLossGrad(3), tc.sched, st, true)
			if err == nil || res != nil {
				t.Fatalf("%T, %s: executed without error", st, tc.name)
			}
			if got := st.BytesResident(); got != startBytes {
				t.Fatalf("%T, %s: %d bytes resident after the failed step, %d before", st, tc.name, got, startBytes)
			}
			if got := spillFiles(); got != startFiles {
				t.Fatalf("%T, %s: %d spill files after the failed step, %d before", st, tc.name, got, startFiles)
			}
			c.ZeroGrads()
			if _, err := ExecuteWithStore(c, x, fixedLossGrad(3), valid, st, true); err != nil {
				t.Fatalf("%T, %s: well-formed step on the same store failed: %v", st, tc.name, err)
			}
		}
	}
}
