package trainer

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// Gradient accumulation is the other standard answer to the memory wall of
// Section IV: instead of recomputing activations, split the batch into
// micro-batches, run them through forward+backward one at a time and sum the
// gradients before the optimiser step. Memory scales with the micro-batch
// size, compute is unchanged, but batch-norm statistics are computed per
// micro-batch, which is exactly the small-batch degradation the paper warns
// about ([14]). The trainer exposes it so the benchmarks can put it next to
// checkpointing.

// AccumulateResult describes one accumulated optimisation step.
type AccumulateResult struct {
	Loss         float64 // mean loss over the micro-batches
	MicroBatches int
	// Usage is the micro-batches folded together: evaluations and disk
	// traffic summed, peaks the largest of any micro-batch.
	chain.Usage
}

// AccumulateStep performs one optimisation step over a full batch by
// splitting it into micro-batches of the given size, accumulating parameter
// gradients across them, scaling by the number of micro-batches, and applying
// the optimiser once. The checkpointing policy applies within each
// micro-batch, so the two techniques compose.
func AccumulateStep(c *chain.Chain, batch Batch, microBatch int, opt Optimizer, policy chain.Policy) (AccumulateResult, error) {
	if batch.Images == nil || len(batch.Labels) == 0 {
		return AccumulateResult{}, fmt.Errorf("trainer: empty batch")
	}
	n := batch.Images.Dim(0)
	if len(batch.Labels) != n {
		return AccumulateResult{}, fmt.Errorf("trainer: %d labels for %d images", len(batch.Labels), n)
	}
	if microBatch <= 0 || microBatch > n {
		microBatch = n
	}
	if opt == nil {
		return AccumulateResult{}, fmt.Errorf("trainer: nil optimizer")
	}

	shape := batch.Images.Shape()
	perSample := 1
	for _, d := range shape[1:] {
		perSample *= d
	}

	res := AccumulateResult{}
	c.ZeroGrads()
	for start := 0; start < n; start += microBatch {
		end := start + microBatch
		if end > n {
			end = n
		}
		size := end - start
		microShape := append([]int{size}, shape[1:]...)
		micro := tensor.New(microShape...)
		copy(micro.Data(), batch.Images.Data()[start*perSample:end*perSample])
		labels := batch.Labels[start:end]

		ce := nn.NewSoftmaxCrossEntropy()
		var loss float64
		lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
			loss = ce.Forward(out, labels)
			return ce.Backward()
		}
		step, err := chain.Step(c, micro, lossGrad, policy, true)
		if err != nil {
			return res, fmt.Errorf("trainer: micro-batch %d: %w", res.MicroBatches, err)
		}
		res.Loss += loss
		res.MicroBatches++
		res.Usage.Add(step.Usage)
	}
	// The cross-entropy already averages within a micro-batch; dividing the
	// accumulated gradients by the micro-batch count makes the update
	// equivalent to averaging over the full batch when micro-batches are of
	// equal size.
	scale := 1.0 / float64(res.MicroBatches)
	for _, p := range c.Params() {
		p.Grad.ScaleInPlace(scale)
	}
	opt.Step(c.Params())
	res.Loss *= scale
	return res, nil
}
