package chain

import (
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// buildSched plans a schedule through the public plan package for a chain of
// length l.
func buildSched(t testing.TB, strategy string, l int, o plan.Options) schedule.Schedule {
	t.Helper()
	s, err := plan.Build(strategy, plan.ChainSpec{Length: l}, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildTestChain creates a small but non-trivial convolutional chain with a
// classifier head, suitable for gradient-equivalence tests.
func buildTestChain(seed uint64) (*Chain, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	layers := []nn.Layer{
		nn.NewConv2D("c1", 1, 4, 3, 1, 1, false, rng),
		nn.NewBatchNorm2D("b1", 4),
		nn.NewReLU("r1"),
		nn.NewBasicBlock("blk1", 4, 8, 2, rng),
		nn.NewBasicBlock("blk2", 8, 8, 1, rng),
		nn.NewGlobalAvgPool2D("gap"),
		nn.NewLinear("fc", 8, 3, true, rng),
	}
	c := New(layers...)
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 8, 8)
	return c, x
}

// fixedLossGrad returns a deterministic loss gradient: dLoss/dOut = out * w
// element-wise for a fixed random w, giving a loss that genuinely depends on
// the output.
func fixedLossGrad(seed uint64) LossGradFunc {
	return func(out *tensor.Tensor) *tensor.Tensor {
		rng := tensor.NewRNG(seed)
		w := tensor.RandNormal(rng, 0, 1, out.Shape()...)
		return tensor.Mul(out, w)
	}
}

// gradSnapshot deep-copies all parameter gradients.
func gradSnapshot(c *Chain) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range c.Params() {
		out = append(out, p.Grad.Clone())
	}
	return out
}

// TestExecutePlainMatchesSequential checks the store-all run of the one
// executor against an independent reference: nn.Sequential's own Forward and
// Backward on a twin chain, bit for bit in the output, the input gradient and
// every parameter gradient.
func TestExecutePlainMatchesSequential(t *testing.T) {
	c, x := buildTestChain(1)
	twin, _ := buildTestChain(1)
	loss := fixedLossGrad(7)
	seq := nn.NewSequential("net", twin.Stages...)
	want := seq.Forward(x, true)
	wantIn := seq.Backward(loss(want))
	res, err := ExecutePlain(c, x, loss, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(res.Output, want); d != 0 {
		t.Fatalf("ExecutePlain output differs from Sequential.Forward by %g", d)
	}
	if d := tensor.MaxAbsDiff(res.InputGrad, wantIn); d != 0 {
		t.Fatalf("ExecutePlain input gradient differs from Sequential.Backward by %g", d)
	}
	got, wantGrads := gradSnapshot(c), gradSnapshot(twin)
	for i := range wantGrads {
		if d := tensor.MaxAbsDiff(got[i], wantGrads[i]); d != 0 {
			t.Fatalf("parameter gradient %d differs from Sequential.Backward by %g", i, d)
		}
	}
	if res.ForwardEvals != c.Len() || res.BackwardEvals != c.Len() {
		t.Fatalf("plain execution counts wrong: %+v", res)
	}
	if res.PeakStates != c.Len()+1 {
		t.Fatalf("plain execution should retain all %d states, got %d", c.Len()+1, res.PeakStates)
	}
}

func TestCheckpointedGradientsMatchPlain(t *testing.T) {
	policies := []struct {
		name     string
		strategy string
		opts     plan.Options
	}{
		{"revolve-1", "revolve", plan.Options{Slots: 1}},
		{"revolve-2", "revolve", plan.Options{Slots: 2}},
		{"revolve-3", "revolve", plan.Options{Slots: 3}},
		{"sequential-2", "sequential", plan.Options{Segments: 2}},
		{"sequential-3", "sequential", plan.Options{Segments: 3}},
		{"twolevel-2-1", "twolevel", plan.Options{Slots: 1, DiskSlots: 2}},
		{"store-all", "storeall", plan.Options{}},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			// Two identical chains (same seed) so running one does not
			// disturb the other's batch-norm running statistics.
			cPlain, x := buildTestChain(42)
			cCheck, _ := buildTestChain(42)
			loss := fixedLossGrad(9)

			plain, err := ExecutePlain(cPlain, x, loss, true)
			if err != nil {
				t.Fatal(err)
			}
			wantGrads := gradSnapshot(cPlain)

			sched := buildSched(t, pol.strategy, cCheck.Len(), pol.opts)
			got, err := Execute(cCheck, x, loss, sched, true)
			if err != nil {
				t.Fatal(err)
			}

			if !tensor.AllClose(plain.Output, got.Output, 1e-9) {
				t.Fatal("checkpointed output differs from plain execution")
			}
			if !tensor.AllClose(plain.InputGrad, got.InputGrad, 1e-8) {
				t.Fatalf("checkpointed input gradient differs: max diff %v",
					tensor.MaxAbsDiff(plain.InputGrad, got.InputGrad))
			}
			gotGrads := gradSnapshot(cCheck)
			for i := range wantGrads {
				if !tensor.AllClose(wantGrads[i], gotGrads[i], 1e-8) {
					t.Fatalf("parameter gradient %d differs: max diff %v",
						i, tensor.MaxAbsDiff(wantGrads[i], gotGrads[i]))
				}
			}
		})
	}
}

func TestCheckpointedMemoryAndRecomputeTradeoff(t *testing.T) {
	cFew, x := buildTestChain(5)
	cMany, _ := buildTestChain(5)
	loss := fixedLossGrad(3)

	schedFew := buildSched(t, "revolve", cFew.Len(), plan.Options{Slots: 1})
	few, err := Execute(cFew, x, loss, schedFew, true)
	if err != nil {
		t.Fatal(err)
	}
	schedMany := buildSched(t, "revolve", cMany.Len(), plan.Options{Slots: cMany.Len() - 1})
	many, err := Execute(cMany, x, loss, schedMany, true)
	if err != nil {
		t.Fatal(err)
	}
	if few.PeakStates >= many.PeakStates {
		t.Fatalf("fewer slots should retain fewer states: %d vs %d", few.PeakStates, many.PeakStates)
	}
	if few.ForwardEvals <= many.ForwardEvals {
		t.Fatalf("fewer slots must recompute more: %d vs %d forwards", few.ForwardEvals, many.ForwardEvals)
	}
	if few.PeakStateBytes >= many.PeakStateBytes {
		t.Fatalf("measured bytes should shrink with fewer slots: %d vs %d", few.PeakStateBytes, many.PeakStateBytes)
	}
}

func TestExecuteForwardCountMatchesScheduleTrace(t *testing.T) {
	c, x := buildTestChain(11)
	sched := buildSched(t, "revolve", c.Len(), plan.Options{Slots: 2})
	tr, err := schedule.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(c, x, fixedLossGrad(1), sched, true)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.ForwardEvals) != tr.Forwards {
		t.Fatalf("executor ran %d forwards, schedule trace says %d", res.ForwardEvals, tr.Forwards)
	}
	if res.BackwardEvals != c.Len() {
		t.Fatalf("executor ran %d adjoints, want %d", res.BackwardEvals, c.Len())
	}
	if res.PeakStates != tr.PeakStates {
		t.Fatalf("executor retained %d states, schedule trace says %d", res.PeakStates, tr.PeakStates)
	}
}

// countingStage is an identity stage that counts its own calls.
type countingStage struct{ forwards, backwards *int }

func (s countingStage) Name() string { return "count" }
func (s countingStage) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	*s.forwards++
	return x
}
func (s countingStage) Backward(g *tensor.Tensor) *tensor.Tensor {
	*s.backwards++
	return g
}
func (s countingStage) Params() []*nn.Param        { return nil }
func (s countingStage) OutputShape(in []int) []int { return in }

// TestPriceCountsExecutedForwards: CostModel prices what the executor runs.
// On a chain of stages that count their own calls, every schedule of every
// planner, at every legal tunable, runs its trace's advances plus one taped
// forward per stage, and one backward per stage; TraceTime is exactly those
// calls at one unit per forward and BackwardRatio per backward, plus one per
// flash write or read the store made. Store-all through Step is plain
// backpropagation, L forwards, which auto prices at the baseline: rho 1.
func TestPriceCountsExecutedForwards(t *testing.T) {
	m := checkpoint.DefaultCostModel
	ts, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	x := tensor.Full(1, 1, 2)
	loss := func(out *tensor.Tensor) *tensor.Tensor { return out }
	var lengths []int
	for l := 1; l <= 30; l++ {
		lengths = append(lengths, l)
	}
	for _, l := range append(lengths, 50, 152) {
		var forwards, backwards int
		stages := make([]nn.Layer, l)
		for i := range stages {
			stages[i] = countingStage{&forwards, &backwards}
		}
		c := New(stages...)
		type run struct {
			strategy string
			o        plan.Options
		}
		runs := []run{{"storeall", plan.Options{}}}
		for s := 1; s < l; s++ {
			runs = append(runs, run{"revolve", plan.Options{Slots: s}})
		}
		for s := 1; s <= l; s++ {
			runs = append(runs, run{"sequential", plan.Options{Segments: s}})
		}
		for d := 1; d <= min(l-1, 6); d++ {
			for r := 1; r <= min(l-1, 6); r++ {
				runs = append(runs, run{"twolevel", plan.Options{Slots: r, DiskSlots: d}})
			}
		}
		for _, r := range runs {
			sched := buildSched(t, r.strategy, l, r.o)
			tr, err := schedule.Run(sched)
			if err != nil {
				t.Fatal(err)
			}
			forwards, backwards = 0, 0
			res, err := ExecuteWithStore(c, x, loss, sched, ts, true)
			if err != nil {
				t.Fatalf("L=%d %s: %v", l, sched.Policy, err)
			}
			if int64(forwards) != tr.Forwards+int64(l) || backwards != l {
				t.Fatalf("L=%d %s: ran %d forwards and %d backwards, want %d advances + %d taped and %d",
					l, sched.Policy, forwards, backwards, tr.Forwards, l, l)
			}
			counted := float64(forwards) + m.BackwardRatio*float64(backwards) + float64(res.DiskWrites+res.DiskReads)
			if got := m.TraceTime(l, tr); got != counted {
				t.Fatalf("L=%d %s: TraceTime %g, the executor's calls and flash I/O cost %g",
					l, sched.Policy, got, counted)
			}
		}

		for _, kind := range []string{"storeall", "auto"} {
			forwards, backwards = 0, 0
			if _, err := Step(c, x, loss, Policy{Kind: kind}, true); err != nil {
				t.Fatal(err)
			}
			if forwards != l || backwards != l {
				t.Fatalf("L=%d: Step(%s) ran %d forwards and %d backwards, want %d each", l, kind, forwards, backwards, l)
			}
		}
		// Store-all with a store of its own runs the same sweep: it writes
		// nothing to the store and gives the storeless run's bits.
		ref, err := Step(c, x, loss, Policy{Kind: "storeall"}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []store.Store{store.NewRAM(), ts} {
			forwards, backwards = 0, 0
			before := st.Stats()
			res, err := Step(c, x, loss, Policy{Kind: "storeall", Store: st}, true)
			if err != nil {
				t.Fatal(err)
			}
			if forwards != l || backwards != l || st.Stats() != before {
				t.Fatalf("L=%d: store-all with %T ran %d forwards and %d backwards, store stats %+v -> %+v; want %d each, none written",
					l, st, forwards, backwards, before, st.Stats(), l)
			}
			if tensor.MaxAbsDiff(res.Output, ref.Output) != 0 || tensor.MaxAbsDiff(res.InputGrad, ref.InputGrad) != 0 {
				t.Fatalf("L=%d: store-all with %T changed the bits", l, st)
			}
		}
		choice, err := plan.AutoSelect(Policy{}.Spec(c, x), plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if choice.Strategy != "storeall" || choice.Time != m.BaselineTime(l) || choice.Rho != 1 ||
			choice.Time != float64(forwards)+m.BackwardRatio*float64(backwards) {
			t.Fatalf("L=%d: auto picked %s at time %g, rho %g; store-all runs at the baseline %g, rho 1",
				l, choice.Strategy, choice.Time, choice.Rho, m.BaselineTime(l))
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	c, x := buildTestChain(13)
	sched := buildSched(t, "revolve", c.Len(), plan.Options{Slots: 2})
	if _, err := Execute(c, x, nil, sched, true); err == nil {
		t.Fatal("nil loss gradient accepted")
	}
	bad := buildSched(t, "revolve", c.Len()+1, plan.Options{Slots: 2})
	if _, err := Execute(c, x, fixedLossGrad(1), bad, true); err == nil {
		t.Fatal("mismatched schedule length accepted")
	}
	if _, err := ExecutePlain(c, x, nil, true); err == nil {
		t.Fatal("nil loss gradient accepted by plain executor")
	}
}

func TestPolicyPlan(t *testing.T) {
	if _, err := (Policy{Kind: "revolve", Slots: 3}).Plan(10); err != nil {
		t.Fatal(err)
	}
	if _, err := (Policy{Kind: "revolve", Rho: 1.8}).Plan(10); err != nil {
		t.Fatal(err)
	}
	if _, err := (Policy{Kind: "revolve"}).Plan(10); err == nil {
		t.Fatal("revolve policy without slots or rho accepted")
	}
	if _, err := (Policy{Kind: "sequential", Segments: 3}).Plan(10); err != nil {
		t.Fatal(err)
	}
	if _, err := (Policy{Kind: "sequential"}).Plan(10); err == nil {
		t.Fatal("sequential policy without segments accepted")
	}
	if _, err := (Policy{Kind: "bogus"}).Plan(10); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := (Policy{}).Plan(10); err != nil {
		t.Fatal("default policy should be store-all")
	}
}

func TestStepWithPolicies(t *testing.T) {
	c, x := buildTestChain(17)
	for _, p := range []Policy{
		{},
		{Kind: "storeall"},
		{Kind: "revolve", Slots: 2},
		{Kind: "sequential", Segments: 3},
	} {
		c.ZeroGrads()
		res, err := Step(c, x, fixedLossGrad(2), p, true)
		if err != nil {
			t.Fatalf("policy %+v failed: %v", p, err)
		}
		if res.Output == nil || res.InputGrad == nil {
			t.Fatalf("policy %+v produced incomplete result", p)
		}
	}
}

func TestFromSequentialAndParams(t *testing.T) {
	rng := tensor.NewRNG(19)
	seq := nn.NewSequential("s",
		nn.NewLinear("a", 4, 4, true, rng),
		nn.NewReLU("r"),
		nn.NewLinear("b", 4, 2, true, rng),
	)
	c := FromSequential(seq)
	if c.Len() != 3 {
		t.Fatalf("chain length %d", c.Len())
	}
	if len(c.Params()) != 4 {
		t.Fatalf("expected 4 params, got %d", len(c.Params()))
	}
	c.Params()[0].Grad.Fill(3)
	c.ZeroGrads()
	if c.Params()[0].Grad.Sum() != 0 {
		t.Fatal("ZeroGrads failed")
	}
}

func TestSmallResNetUnderCheckpointing(t *testing.T) {
	// End-to-end: the scaled-down ResNet-18 from internal/resnet trains one
	// step under Revolve checkpointing with gradients equal to the baseline.
	cfg := resnet.DefaultSmallConfig()
	netA, err := resnet.BuildSmall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := resnet.BuildSmall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chainA := FromSequential(netA)
	chainB := FromSequential(netB)
	rng := tensor.NewRNG(23)
	x := tensor.RandNormal(rng, 0, 1, 2, cfg.InputChannels, 16, 16)
	labels := []int{0, 2}
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		ce := nn.NewSoftmaxCrossEntropy()
		ce.Forward(out, labels)
		return ce.Backward()
	}
	plain, err := ExecutePlain(chainA, x, lossGrad, true)
	if err != nil {
		t.Fatal(err)
	}
	sched := buildSched(t, "revolve", chainB.Len(), plan.Options{Slots: 2})
	ck, err := Execute(chainB, x, lossGrad, sched, true)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(plain.Output, ck.Output, 1e-9) {
		t.Fatal("small ResNet outputs differ under checkpointing")
	}
	ga, gb := gradSnapshot(chainA), gradSnapshot(chainB)
	for i := range ga {
		if !tensor.AllClose(ga[i], gb[i], 1e-8) {
			t.Fatalf("small ResNet gradient %d differs under checkpointing", i)
		}
	}
	if ck.PeakStates >= plain.PeakStates {
		t.Fatal("checkpointing should retain fewer states than the baseline")
	}
}

// Property: for any slot budget, the checkpointed executor reproduces the
// plain executor's input gradient on a small random MLP chain.
func TestGradientEquivalenceProperty(t *testing.T) {
	f := func(seedRaw uint8, slotsRaw uint8) bool {
		seed := uint64(seedRaw) + 1
		build := func() (*Chain, *tensor.Tensor) {
			rng := tensor.NewRNG(seed)
			layers := []nn.Layer{
				nn.NewLinear("l1", 6, 10, true, rng),
				nn.NewReLU("r1"),
				nn.NewLinear("l2", 10, 10, true, rng),
				nn.NewReLU("r2"),
				nn.NewLinear("l3", 10, 4, true, rng),
			}
			return New(layers...), tensor.RandNormal(rng, 0, 1, 3, 6)
		}
		cPlain, x := build()
		cCheck, _ := build()
		loss := fixedLossGrad(seed * 31)
		plain, err := ExecutePlain(cPlain, x, loss, true)
		if err != nil {
			return false
		}
		slots := int(slotsRaw%4) + 1
		sched, err := plan.Build("revolve", plan.ChainSpec{Length: cCheck.Len()}, plan.Options{Slots: slots})
		if err != nil {
			return false
		}
		ck, err := Execute(cCheck, x, loss, sched, true)
		if err != nil {
			return false
		}
		return tensor.AllClose(plain.InputGrad, ck.InputGrad, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointedExecuteBitIdenticalAcrossWorkerCounts asserts the engine's
// determinism guarantee end to end: a checkpointed training step (with its
// recompute sweeps) produces byte-for-byte identical outputs and gradients
// whether the kernels run serially or on many workers.
func TestCheckpointedExecuteBitIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (*Result, []*tensor.Tensor) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		c, x := buildTestChain(3)
		sched := buildSched(t, "revolve", c.Len(), plan.Options{Slots: 2})
		c.ZeroGrads()
		res, err := Execute(c, x, fixedLossGrad(9), sched, true)
		if err != nil {
			t.Fatal(err)
		}
		return res, gradSnapshot(c)
	}
	refRes, refGrads := run(1)
	for _, w := range []int{2, 6} {
		res, grads := run(w)
		if d := tensor.MaxAbsDiff(refRes.Output, res.Output); d != 0 {
			t.Errorf("workers=%d: output differs from serial by %g", w, d)
		}
		if d := tensor.MaxAbsDiff(refRes.InputGrad, res.InputGrad); d != 0 {
			t.Errorf("workers=%d: input gradient differs from serial by %g", w, d)
		}
		for i := range refGrads {
			if d := tensor.MaxAbsDiff(refGrads[i], grads[i]); d != 0 {
				t.Errorf("workers=%d: parameter gradient %d differs from serial by %g", w, i, d)
			}
		}
	}
}

// TestUsageAdd pins the one rule every cost book folds by: counts add, peaks
// take the larger value, and the zero Usage is the identity on either side.
func TestUsageAdd(t *testing.T) {
	a := Usage{ForwardEvals: 5, BackwardEvals: 4, PeakStates: 3, PeakStateBytes: 300, PeakDiskBytes: 50, DiskWrites: 2, DiskReads: 3}
	b := Usage{ForwardEvals: 7, BackwardEvals: 4, PeakStates: 5, PeakStateBytes: 200, PeakDiskBytes: 80, DiskWrites: 1, DiskReads: 1}
	sum := Usage{ForwardEvals: 12, BackwardEvals: 8, PeakStates: 5, PeakStateBytes: 300, PeakDiskBytes: 80, DiskWrites: 3, DiskReads: 4}
	cases := []struct {
		name           string
		into, add, out Usage
	}{
		{"counts add, peaks max", a, b, sum},
		{"order does not matter", b, a, sum},
		{"zero on the left", Usage{}, a, a},
		{"zero on the right", a, Usage{}, a},
		{"zero plus zero", Usage{}, Usage{}, Usage{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.into
			got.Add(tc.add)
			if got != tc.out {
				t.Fatalf("%+v.Add(%+v) = %+v, want %+v", tc.into, tc.add, got, tc.out)
			}
		})
	}
}
