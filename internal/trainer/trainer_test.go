package trainer

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/store"
)

// twoBlobDataset builds a linearly separable two-class dataset of (N, 2)
// feature vectors.
func twoBlobDataset(rng *tensor.RNG, n int) *SliceDataset {
	var samples []Batch
	for i := 0; i < n; i++ {
		label := i % 2
		cx := -1.5
		if label == 1 {
			cx = 1.5
		}
		img := tensor.FromSlice([]float64{cx + rng.Normal(0, 0.4), rng.Normal(0, 0.4)}, 1, 2)
		samples = append(samples, Batch{Images: img, Labels: []int{label}})
	}
	return NewSliceDataset(samples)
}

func mlpChain(seed uint64) *chain.Chain {
	rng := tensor.NewRNG(seed)
	return chain.New(
		nn.NewLinear("l1", 2, 16, true, rng),
		nn.NewReLU("r1"),
		nn.NewLinear("l2", 16, 16, true, rng),
		nn.NewReLU("r2"),
		nn.NewLinear("l3", 16, 16, true, rng),
		nn.NewReLU("r3"),
		nn.NewLinear("l4", 16, 2, true, rng),
	)
}

func TestSliceDatasetBatching(t *testing.T) {
	rng := tensor.NewRNG(1)
	ds := twoBlobDataset(rng, 10)
	if ds.Len() != 10 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if ds.NumBatches(4) != 3 {
		t.Fatalf("NumBatches(4) = %d, want 3", ds.NumBatches(4))
	}
	b0 := ds.Batch(0, 4)
	if b0.Images.Dim(0) != 4 || len(b0.Labels) != 4 {
		t.Fatalf("first batch wrong: %v labels=%d", b0.Images.Shape(), len(b0.Labels))
	}
	last := ds.Batch(2, 4)
	if last.Images.Dim(0) != 2 {
		t.Fatalf("final partial batch should have 2 samples, got %d", last.Images.Dim(0))
	}
	empty := ds.Batch(5, 4)
	if empty.Images != nil {
		t.Fatal("out-of-range batch should be empty")
	}
	if ds.NumBatches(0) != 0 {
		t.Fatal("NumBatches with non-positive size should be 0")
	}
}

func TestOptimizersReduceQuadraticLoss(t *testing.T) {
	// Minimise f(w) = 0.5*||w - target||^2 whose gradient is (w - target).
	target := []float64{1, -2, 3}
	for _, opt := range []Optimizer{NewSGD(0.1), NewMomentum(0.05, 0.9), NewAdam(0.05)} {
		p := nn.NewParam("w", tensor.New(3))
		loss := func() float64 {
			s := 0.0
			for i, v := range p.Value.Data() {
				d := v - target[i]
				s += 0.5 * d * d
			}
			return s
		}
		initial := loss()
		for step := 0; step < 300; step++ {
			p.ZeroGrad()
			for i, v := range p.Value.Data() {
				p.Grad.Data()[i] = v - target[i]
			}
			opt.Step([]*nn.Param{p})
		}
		if final := loss(); final > initial/100 {
			t.Errorf("%s did not converge: initial %v final %v", opt.Name(), initial, final)
		}
	}
}

func TestOptimizerStateBytes(t *testing.T) {
	if NewSGD(0.1).StateBytesPerParam() != 0 {
		t.Error("SGD should carry no state")
	}
	if NewMomentum(0.1, 0.9).StateBytesPerParam() != 4 {
		t.Error("Momentum should carry one fp32 buffer")
	}
	if NewAdam(0.1).StateBytesPerParam() != 8 {
		t.Error("Adam should carry two fp32 buffers")
	}
}

func TestNewOptimizerByName(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "adam"} {
		opt, err := NewOptimizer(name, 0.1)
		if err != nil || opt.Name() != name {
			t.Fatalf("NewOptimizer(%q) = %v, %v", name, opt, err)
		}
	}
	if _, err := NewOptimizer("lbfgs", 0.1); err == nil {
		t.Fatal("unknown optimiser accepted")
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := nn.NewParam("w", tensor.Full(1, 4))
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	p.ZeroGrad()
	opt.Step([]*nn.Param{p})
	if p.Value.At(0) >= 1 {
		t.Fatal("weight decay should shrink weights even with zero gradient")
	}
}

func TestTrainerLearnsSeparableData(t *testing.T) {
	rng := tensor.NewRNG(5)
	ds := twoBlobDataset(rng, 64)
	c := mlpChain(6)
	tr, err := New(c, Config{Epochs: 8, BatchSize: 8, Optimizer: NewAdam(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 8 {
		t.Fatalf("expected 8 epochs of stats, got %d", len(stats))
	}
	first, last := stats[0], stats[len(stats)-1]
	if last.Loss >= first.Loss {
		t.Fatalf("loss did not decrease: %v -> %v", first.Loss, last.Loss)
	}
	if last.Accuracy < 0.9 {
		t.Fatalf("final training accuracy %.2f too low for separable data", last.Accuracy)
	}
	_, acc, err := Evaluate(c, ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("evaluation accuracy %.2f too low", acc)
	}
}

func TestTrainerWithCheckpointingPolicyMatchesPlainLearning(t *testing.T) {
	rng := tensor.NewRNG(9)
	ds := twoBlobDataset(rng, 48)
	cPlain := mlpChain(10)
	cCheck := mlpChain(10)

	trPlain, err := New(cPlain, Config{Epochs: 5, BatchSize: 8, Optimizer: NewSGD(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	trCheck, err := New(cCheck, Config{
		Epochs: 5, BatchSize: 8, Optimizer: NewSGD(0.1),
		Policy: chain.Policy{Kind: "revolve", Slots: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sPlain, err := trPlain.Train(ds)
	if err != nil {
		t.Fatal(err)
	}
	sCheck, err := trCheck.Train(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Same data, same seed, same optimiser: the loss trajectories must agree
	// because checkpointing changes memory use, not gradients.
	for e := range sPlain {
		if math.Abs(sPlain[e].Loss-sCheck[e].Loss) > 1e-9 {
			t.Fatalf("epoch %d: loss %v (plain) vs %v (checkpointed)", e, sPlain[e].Loss, sCheck[e].Loss)
		}
	}
	// And the checkpointed run must have retained fewer states while doing
	// more forward work.
	if sCheck[0].PeakStates >= sPlain[0].PeakStates {
		t.Fatal("checkpointed training did not reduce retained states")
	}
	if sCheck[0].ForwardEvals <= sPlain[0].ForwardEvals {
		t.Fatal("checkpointed training should recompute forwards")
	}
}

func TestTrainerHookAndDefaults(t *testing.T) {
	rng := tensor.NewRNG(11)
	ds := twoBlobDataset(rng, 8)
	calls := 0
	c := mlpChain(12)
	tr, err := New(c, Config{Hook: func(step int, loss float64) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(ds); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("hook was never called")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil chain accepted")
	}
	if _, err := New(chain.New(), Config{}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	c := mlpChain(13)
	if _, _, err := Evaluate(c, NewSliceDataset(nil), 4); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestIdleSchedulerBasics(t *testing.T) {
	s := DefaultIdleScheduler
	// A fully idle hour can absorb an hour of training.
	trace := []LoadSlice{{Seconds: 3600, Load: 0}}
	res, err := s.Schedule(trace, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || math.Abs(res.ElapsedSeconds-1800) > 1e-6 {
		t.Fatalf("idle trace scheduling wrong: %+v", res)
	}
	// A fully busy trace never runs training.
	busy := []LoadSlice{{Seconds: 3600, Load: 0.9}}
	res, err = s.Schedule(busy, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.TrainingSeconds != 0 {
		t.Fatalf("busy trace should not train: %+v", res)
	}
	if _, err := s.Schedule(trace, -1); err == nil {
		t.Fatal("negative cost accepted")
	}
}

func TestIdleSchedulerInterleaving(t *testing.T) {
	s := IdleScheduler{IdleThreshold: 0.5}
	trace := []LoadSlice{
		{Seconds: 100, Load: 0.2}, // 80 cpu-seconds available
		{Seconds: 100, Load: 0.9}, // busy
		{Seconds: 100, Load: 0.0}, // 100 available
	}
	res, err := s.Schedule(trace, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("job should complete: %+v", res)
	}
	// 80 s of work in the first slice, the busy slice passes entirely, then
	// 40 s of work in the last slice: elapsed = 100 + 100 + 40.
	if math.Abs(res.ElapsedSeconds-240) > 1e-6 {
		t.Fatalf("elapsed %v, want 240", res.ElapsedSeconds)
	}
	if math.Abs(res.BusySeconds-100) > 1e-6 {
		t.Fatalf("busy %v, want 100", res.BusySeconds)
	}
}

func TestDielLoadTrace(t *testing.T) {
	trace := DielLoadTrace(1, 3600, 0.8, 0.1)
	if len(trace) != 24 {
		t.Fatalf("expected 24 hourly slices, got %d", len(trace))
	}
	if trace[3].Load != 0.1 || trace[12].Load != 0.8 {
		t.Fatalf("diel pattern wrong: night=%v day=%v", trace[3].Load, trace[12].Load)
	}
	if DielLoadTrace(0, 3600, 0.8, 0.1) != nil {
		t.Fatal("zero days should produce an empty trace")
	}
	// A nightly-idle node eventually completes a big training job.
	s := DefaultIdleScheduler
	res, err := s.Schedule(DielLoadTrace(7, 3600, 0.9, 0.1), 20*3600)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("a week of nights should fit 20 CPU-hours of training")
	}
	if res.Utilisation >= 1 {
		t.Fatal("utilisation must be below 1 when busy periods exist")
	}
}

// Property: the scheduler never reports more training seconds than requested
// and never more than the elapsed wall-clock time.
func TestIdleSchedulerProperty(t *testing.T) {
	f := func(costRaw uint16, seed uint8) bool {
		rng := tensor.NewRNG(uint64(seed))
		var trace []LoadSlice
		for i := 0; i < 20; i++ {
			trace = append(trace, LoadSlice{Seconds: 10 + 100*rng.Float64(), Load: rng.Float64()})
		}
		cost := float64(costRaw % 5000)
		res, err := DefaultIdleScheduler.Schedule(trace, cost)
		if err != nil {
			return false
		}
		if res.TrainingSeconds > cost+1e-6 {
			return false
		}
		return res.TrainingSeconds <= res.ElapsedSeconds+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointedTrainingMatchesPlainState pins "a checkpointed step
// reproduces plain backpropagation exactly" for everything a durable
// checkpoint or a fleet broadcast carries, not just the parameters: the
// scheduled executor re-runs stage forwards, and batch norm folds the batch
// statistics into its running mean and variance on every training forward, so
// without the executor's restore the inference-mode statistics of a
// checkpointed run drift away from plain backpropagation's.
func TestCheckpointedTrainingMatchesPlainState(t *testing.T) {
	ds := imageDataset(24) // six Adam steps at batch 4
	run := func(p chain.Policy) (state []uint64, evalLoss uint64) {
		t.Helper()
		c := convBNChain(5)
		tr, err := New(c, Config{Epochs: 1, BatchSize: 4, Optimizer: NewAdam(0.01), Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(ds); err != nil {
			t.Fatalf("%s: %v", p.Kind, err)
		}
		loss, _, err := Evaluate(c, ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		return trainingBytes(c), math.Float64bits(loss)
	}
	tiered, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	wantState, wantLoss := run(chain.Policy{Kind: "storeall"})
	for _, p := range []chain.Policy{
		{Kind: "revolve", Slots: 2},
		{Kind: "sequential", Segments: 3},
		{Kind: "twolevel", Slots: 1, DiskSlots: 2, Store: tiered},
	} {
		state, loss := run(p)
		if !slices.Equal(state, wantState) {
			t.Errorf("%s: parameters or batch-norm state differ from plain backpropagation", p.Kind)
		}
		if loss != wantLoss {
			t.Errorf("%s: inference-mode loss %v, want %v", p.Kind, math.Float64frombits(loss), math.Float64frombits(wantLoss))
		}
	}
}
