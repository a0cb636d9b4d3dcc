package trainer

import (
	"errors"
	"math"
	"testing"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// convBNChain builds a deterministic 8-stage conv/batch-norm chain over
// 1x8x8 images — batch norm gives it non-trainable running statistics, so
// resume must restore more than the parameters.
func convBNChain(seed uint64) *chain.Chain {
	rng := tensor.NewRNG(seed)
	return chain.New(
		nn.NewConv2D("c1", 1, 4, 3, 1, 1, true, rng),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewReLU("r1"),
		nn.NewConv2D("c2", 4, 4, 3, 1, 1, true, rng),
		nn.NewBatchNorm2D("bn2", 4),
		nn.NewReLU("r2"),
		nn.NewFlatten("flat"),
		nn.NewLinear("head", 4*8*8, 3, true, rng),
	)
}

// imageDataset builds n labelled 1x8x8 frames.
func imageDataset(n int) *SliceDataset {
	rng := tensor.NewRNG(99)
	var samples []Batch
	for i := 0; i < n; i++ {
		samples = append(samples, Batch{
			Images: tensor.RandNormal(rng, 0, 1, 1, 1, 8, 8),
			Labels: []int{i % 3},
		})
	}
	return NewSliceDataset(samples)
}

// trainingBytes captures the bit-level fingerprint of a chain's full
// training state: parameter values and batch-norm running statistics.
func trainingBytes(c *chain.Chain) []uint64 {
	var out []uint64
	for _, p := range c.Params() {
		for _, v := range p.Value.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, st := range nn.CollectState(c.Stages) {
		for _, v := range st.Tensor.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// crashNow is the sentinel the simulated crash panics with.
type crashNow struct{}

// trainUntilCrash runs TrainFrom, triggering a simulated crash (panic,
// recovered here) after crashStep optimisation steps. Training completing
// before the crash step is a test bug.
func trainUntilCrash(t *testing.T, tr *Trainer, ds Dataset, cp *CheckpointPlan, crashStep int) {
	t.Helper()
	steps := 0
	tr.Cfg.Hook = func(step int, loss float64) {
		steps++
		if steps == crashStep {
			panic(crashNow{})
		}
	}
	defer func() {
		tr.Cfg.Hook = nil
		if r := recover(); r == nil {
			t.Fatalf("training finished before the simulated crash at step %d", crashStep)
		} else if _, ok := r.(crashNow); !ok {
			panic(r)
		}
	}()
	_, err := tr.TrainFrom(ds, Cursor{}, cp)
	t.Fatalf("TrainFrom returned (%v) instead of crashing", err)
}

// TestResumeBitIdentical is the acceptance test of the resume engine: a run
// killed mid-epoch and resumed from its last durable checkpoint must finish
// with weights (and batch-norm state) bit-identical to an uninterrupted
// run — across checkpointing policies and kernel worker counts.
func TestResumeBitIdentical(t *testing.T) {
	policies := map[string]chain.Policy{
		"storeall": {Kind: "storeall"},
		"revolve":  {Kind: "revolve", Slots: 3},
		"twolevel": {Kind: "twolevel", Slots: 2, DiskSlots: 2},
	}
	const (
		epochs    = 2
		batchSize = 2
		samples   = 12 // 6 steps per epoch
		every     = 4  // checkpoint every 4 steps
		crashStep = 9  // mid-epoch 1; last durable checkpoint is step 8
	)
	ds := imageDataset(samples)
	newTrainer := func(pol chain.Policy) *Trainer {
		tr, err := New(convBNChain(7), Config{
			Epochs:    epochs,
			BatchSize: batchSize,
			Optimizer: NewAdam(0.01),
			Policy:    pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	for name, pol := range policies {
		for _, workers := range []int{1, 3} {
			t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)

				// Uninterrupted reference run.
				ref := newTrainer(pol)
				if _, err := ref.Train(ds); err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}
				want := trainingBytes(ref.Chain)

				// Interrupted run: crash mid-epoch, then resume in a fresh
				// trainer (fresh model and optimizer — a new process).
				dir, err := ckpt.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cp := &CheckpointPlan{Dir: dir, EverySteps: every}
				victim := newTrainer(pol)
				trainUntilCrash(t, victim, ds, cp, crashStep)

				resumed := newTrainer(pol)
				cur, err := resumed.ResumeFrom(dir)
				if err != nil {
					t.Fatalf("ResumeFrom: %v", err)
				}
				if cur.Epoch != 1 || cur.Batch != 2 {
					t.Fatalf("resume cursor %+v, want epoch 1 batch 2 (step 8 boundary)", cur)
				}
				if _, err := resumed.TrainFrom(ds, cur, cp); err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				got := trainingBytes(resumed.Chain)

				if len(want) != len(got) {
					t.Fatalf("state sizes differ: %d vs %d words", len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("policy %s workers=%d: resumed state differs from uninterrupted at word %d", name, workers, i)
					}
				}

				// The completed run's checkpoint marks the run done; resuming
				// it again trains zero further steps and changes nothing.
				again := newTrainer(pol)
				cur, err = again.ResumeFrom(dir)
				if err != nil {
					t.Fatalf("ResumeFrom completed: %v", err)
				}
				if cur.Epoch != epochs {
					t.Fatalf("completion cursor %+v, want epoch %d", cur, epochs)
				}
				stats, err := again.TrainFrom(ds, cur, nil)
				if err != nil || len(stats) != 0 {
					t.Fatalf("resume of a completed run trained %d epochs (err %v)", len(stats), err)
				}
				final := trainingBytes(again.Chain)
				for i := range want {
					if want[i] != final[i] {
						t.Fatalf("completed-run checkpoint does not reproduce final state at word %d", i)
					}
				}
			})
		}
	}
}

// TestResumeAcrossWorkerCounts saves under one worker count and resumes
// under another: the checkpoint bytes and the resumed trajectory must be
// identical, because neither the format nor the kernels depend on the
// worker count.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	ds := imageDataset(8)
	make1 := func() *Trainer {
		tr, err := New(convBNChain(3), Config{Epochs: 2, BatchSize: 2, Optimizer: NewMomentum(0.05, 0.9)})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	ref := make1()
	if _, err := ref.Train(ds); err != nil {
		t.Fatal(err)
	}
	want := trainingBytes(ref.Chain)

	// Save at the epoch boundary under 4 workers...
	parallel.SetWorkers(4)
	dir, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	half := make1()
	half.Cfg.Epochs = 1
	if _, err := half.TrainFrom(ds, Cursor{}, &CheckpointPlan{Dir: dir}); err != nil {
		t.Fatal(err)
	}

	// ...and resume under 2 workers (a different process on different silicon).
	parallel.SetWorkers(2)
	resumed := make1()
	cur, err := resumed.ResumeFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Epoch != 1 || cur.Batch != 0 {
		t.Fatalf("cursor %+v, want epoch 1 batch 0", cur)
	}
	if _, err := resumed.TrainFrom(ds, cur, nil); err != nil {
		t.Fatal(err)
	}
	got := trainingBytes(resumed.Chain)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resumed state differs at word %d", i)
		}
	}
}

// TestOptimizerStateRoundTrip pins capture/restore for the stateful
// optimisers, including the Adam step counter that bias correction needs.
func TestOptimizerStateRoundTrip(t *testing.T) {
	ds := imageDataset(4)
	for _, mk := range []func() Optimizer{
		func() Optimizer { return NewSGD(0.05) },
		func() Optimizer { return NewMomentum(0.05, 0.9) },
		func() Optimizer { return NewAdam(0.01) },
	} {
		tr, err := New(convBNChain(5), Config{Epochs: 1, BatchSize: 2, Optimizer: mk()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(ds); err != nil {
			t.Fatal(err)
		}
		st, err := OptimizerStateView(tr.Cfg.Optimizer, tr.Chain.Params())
		if err != nil {
			t.Fatal(err)
		}
		if st.Name != tr.Cfg.Optimizer.Name() {
			t.Fatalf("captured name %q, want %q", st.Name, tr.Cfg.Optimizer.Name())
		}
		fresh := mk()
		if err := RestoreOptimizerState(fresh, tr.Chain.Params(), st); err != nil {
			t.Fatalf("restore into fresh %s: %v", fresh.Name(), err)
		}
		st2, err := OptimizerStateView(fresh, tr.Chain.Params())
		if err != nil {
			t.Fatal(err)
		}
		if st.Step != st2.Step || len(st.Slots) != len(st2.Slots) {
			t.Fatalf("%s state changed across restore: %d/%d slots, step %d/%d",
				fresh.Name(), len(st.Slots), len(st2.Slots), st.Step, st2.Step)
		}
		for i := range st.Slots {
			a, b := st.Slots[i], st2.Slots[i]
			if a.Param != b.Param || a.Slot != b.Slot || len(a.Data) != len(b.Data) {
				t.Fatalf("%s slot %d differs structurally", fresh.Name(), i)
			}
			for j := range a.Data {
				if math.Float64bits(a.Data[j]) != math.Float64bits(b.Data[j]) {
					t.Fatalf("%s slot %d element %d differs", fresh.Name(), i, j)
				}
			}
		}
	}
}

// TestRestoreRejectsMismatches pins the loud-failure contract: resuming into
// the wrong model or optimizer errors before any state is applied
// half-way.
func TestRestoreRejectsMismatches(t *testing.T) {
	ds := imageDataset(4)
	dir, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(convBNChain(5), Config{Epochs: 1, BatchSize: 2, Optimizer: NewAdam(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TrainFrom(ds, Cursor{}, &CheckpointPlan{Dir: dir}); err != nil {
		t.Fatal(err)
	}

	// Wrong optimizer kind.
	other, err := New(convBNChain(5), Config{Epochs: 1, BatchSize: 2, Optimizer: NewSGD(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.ResumeFrom(dir); err == nil {
		t.Fatal("resume with a different optimizer kind succeeded")
	}

	// Different batch size: the checkpointed Batch cursor counts batches of
	// the original size, so reinterpreting it would shift the resume point.
	rebatched, err := New(convBNChain(5), Config{Epochs: 1, BatchSize: 4, Optimizer: NewAdam(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebatched.ResumeFrom(dir); err == nil {
		t.Fatal("resume with a different batch size succeeded")
	}

	// Wrong model architecture.
	wrong, err := New(mlpChain(5), Config{Epochs: 1, BatchSize: 2, Optimizer: NewAdam(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.ResumeFrom(dir); err == nil {
		t.Fatal("resume into a different architecture succeeded")
	}

	// Empty directory.
	empty, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ResumeFrom(empty); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("resume from empty dir: want ErrNoCheckpoint, got %v", err)
	}

	// A checkpoint trained past this run's epoch budget: truncating its
	// cursor would rewind below the weights' real progress, so TrainFrom
	// must refuse.
	shorter, err := New(convBNChain(5), Config{Epochs: 1, BatchSize: 2, Optimizer: NewAdam(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := shorter.ResumeFrom(dir) // checkpoint completed 1 epoch... cursor may exceed shorter run
	if err != nil {
		t.Fatal(err)
	}
	shorter.Cfg.Epochs = 0
	if _, err := shorter.TrainFrom(ds, cur, nil); err == nil {
		t.Fatalf("TrainFrom accepted cursor %+v beyond the configured epochs", cur)
	}
}
