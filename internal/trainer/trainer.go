package trainer

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/obs"
)

// Batch is one minibatch of NCHW images (or (N, features) vectors) and their
// integer class labels.
type Batch struct {
	Images *tensor.Tensor
	Labels []int
}

// Dataset supplies minibatches for training or evaluation.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Batch returns the b-th minibatch of the requested size. Implementations
	// may return a smaller final batch.
	Batch(b, size int) Batch
	// NumBatches returns how many minibatches of the given size cover the set.
	NumBatches(size int) int
}

// SliceDataset is an in-memory Dataset backed by a slice of samples.
type SliceDataset struct {
	Samples []Batch // each with a single image (batch dimension 1)
}

// NewSliceDataset wraps individual samples (each Batch must contain exactly
// one image) into a dataset.
func NewSliceDataset(samples []Batch) *SliceDataset { return &SliceDataset{Samples: samples} }

// Len implements Dataset.
func (d *SliceDataset) Len() int { return len(d.Samples) }

// NumBatches implements Dataset.
func (d *SliceDataset) NumBatches(size int) int {
	if size <= 0 || len(d.Samples) == 0 {
		return 0
	}
	return (len(d.Samples) + size - 1) / size
}

// Batch implements Dataset by concatenating consecutive samples.
func (d *SliceDataset) Batch(b, size int) Batch {
	start := b * size
	end := start + size
	if end > len(d.Samples) {
		end = len(d.Samples)
	}
	if start >= end {
		return Batch{}
	}
	first := d.Samples[start].Images
	shape := first.Shape()
	n := end - start
	outShape := append([]int{n}, shape[1:]...)
	out := tensor.New(outShape...)
	per := first.Size()
	labels := make([]int, 0, n)
	for i := start; i < end; i++ {
		copy(out.Data()[(i-start)*per:(i-start+1)*per], d.Samples[i].Images.Data())
		labels = append(labels, d.Samples[i].Labels...)
	}
	return Batch{Images: out, Labels: labels}
}

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Policy    chain.Policy // checkpointing policy for the backward pass
	// Hook, if non-nil, is called after every optimisation step with the
	// running step index and the minibatch loss.
	Hook func(step int, loss float64)
}

// EpochStats summarises one training epoch.
type EpochStats struct {
	Epoch    int
	Loss     float64 // mean minibatch loss
	Accuracy float64 // training accuracy over the epoch
	Steps    int
	// Usage is the epoch's steps folded together: evaluations and disk
	// traffic summed, peaks the largest of any step.
	chain.Usage
}

// Trainer runs supervised training of a chain with a cross-entropy head.
type Trainer struct {
	Chain *chain.Chain
	Cfg   Config
}

// New creates a Trainer for the given network and configuration.
func New(c *chain.Chain, cfg Config) (*Trainer, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewSGD(0.05)
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("trainer: empty chain")
	}
	return &Trainer{Chain: c, Cfg: cfg}, nil
}

// trainEpoch runs one epoch starting at batch startBatch (non-zero when
// resuming mid-epoch from a checkpoint). ps, when non-nil, checkpoints: each
// optimizer step first joins the save in flight, which views the tensors the
// step writes, then ps saves at the cursor of the NEXT batch, so a resumed
// run continues exactly where the interrupted one left off.
func (t *Trainer) trainEpoch(ds Dataset, epoch, startBatch int, ps *planSaver) (EpochStats, error) {
	stats := EpochStats{Epoch: epoch}
	// Metric handles resolve once per epoch; the per-step cost is a pair of
	// atomic adds (nil no-ops when observability is off).
	reg := obs.Default()
	obsSteps := reg.Counter("trainer_steps_total", "Optimisation steps completed across all epochs.")
	nb := ds.NumBatches(t.Cfg.BatchSize)
	totalCorrectWeight := 0.0
	totalSamples := 0
	for b := startBatch; b < nb; b++ {
		batch := ds.Batch(b, t.Cfg.BatchSize)
		if batch.Images == nil || len(batch.Labels) == 0 {
			continue
		}
		t.Chain.ZeroGrads()
		loss, res, err := LossStep(t.Chain, batch, t.Cfg.Policy)
		if err != nil {
			return stats, fmt.Errorf("trainer: step %d failed: %w", b, err)
		}
		if ps != nil {
			if err := ps.join(); err != nil {
				return stats, err
			}
		}
		t.Cfg.Optimizer.Step(t.Chain.Params())
		obsSteps.Inc()

		stats.Loss += loss
		stats.Steps++
		stats.Usage.Add(res.Usage)
		acc := nn.Accuracy(res.Output, batch.Labels)
		totalCorrectWeight += acc * float64(len(batch.Labels))
		totalSamples += len(batch.Labels)
		if t.Cfg.Hook != nil {
			t.Cfg.Hook(stats.Steps, loss)
		}
		if ps != nil {
			next := Cursor{Epoch: epoch, Batch: b + 1}
			if next.Batch >= nb {
				next = Cursor{Epoch: epoch + 1, Batch: 0}
			}
			if err := ps.afterStep(next); err != nil {
				return stats, err
			}
		}
	}
	if stats.Steps > 0 {
		stats.Loss /= float64(stats.Steps)
	}
	if totalSamples > 0 {
		stats.Accuracy = totalCorrectWeight / float64(totalSamples)
	}
	return stats, nil
}

// LossStep runs one checkpointed training step of the batch's softmax
// cross-entropy through chain.Step under policy p: the forward, the loss and
// the backward, with parameter gradients added to what the chain's Params
// already hold (it does not zero them). It returns the batch's mean loss and
// the step's Result. The policy goes as given: its Store, if any, is a
// deployment setting, and without one Step's single rule picks the store.
func LossStep(c *chain.Chain, batch Batch, p chain.Policy) (float64, *chain.Result, error) {
	ce := nn.NewSoftmaxCrossEntropy()
	var loss float64
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		loss = ce.Forward(out, batch.Labels)
		return ce.Backward()
	}
	res, err := chain.Step(c, batch.Images, lossGrad, p, true)
	return loss, res, err
}

// Train runs the configured number of epochs and returns per-epoch stats.
// It is TrainFrom from the start of training with no checkpointing.
func (t *Trainer) Train(ds Dataset) ([]EpochStats, error) {
	return t.TrainFrom(ds, Cursor{}, nil)
}

// Evaluate computes the loss and accuracy of the chain on a dataset without
// updating parameters: each batch is one Chain.Infer sweep (layers in
// inference mode, no tape left behind).
func Evaluate(c *chain.Chain, ds Dataset, batchSize int) (loss, accuracy float64, err error) {
	if batchSize <= 0 {
		batchSize = 8
	}
	nb := ds.NumBatches(batchSize)
	totalLoss := 0.0
	totalCorrect := 0.0
	samples := 0
	batches := 0
	for b := 0; b < nb; b++ {
		batch := ds.Batch(b, batchSize)
		if batch.Images == nil || len(batch.Labels) == 0 {
			continue
		}
		out := c.Infer(batch.Images)
		ce := nn.NewSoftmaxCrossEntropy()
		totalLoss += ce.Forward(out, batch.Labels)
		totalCorrect += nn.Accuracy(out, batch.Labels) * float64(len(batch.Labels))
		samples += len(batch.Labels)
		batches++
	}
	if batches == 0 {
		return 0, 0, fmt.Errorf("trainer: empty evaluation dataset")
	}
	return totalLoss / float64(batches), totalCorrect / float64(samples), nil
}
