package trainer

import (
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// linearOnlyChain avoids batch norm so that micro-batching is mathematically
// equivalent to full-batch training and can be compared exactly.
func linearOnlyChain(seed uint64) *chain.Chain {
	rng := tensor.NewRNG(seed)
	return chain.New(
		nn.NewLinear("l1", 3, 8, true, rng),
		nn.NewReLU("r1"),
		nn.NewLinear("l2", 8, 2, true, rng),
	)
}

func makeBatch(rng *tensor.RNG, n int) Batch {
	imgs := tensor.RandNormal(rng, 0, 1, n, 3)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	return Batch{Images: imgs, Labels: labels}
}

func TestAccumulateStepEquivalentToFullBatch(t *testing.T) {
	rng := tensor.NewRNG(1)
	batch := makeBatch(rng, 8)

	full := linearOnlyChain(7)
	micro := linearOnlyChain(7)

	// Full batch: one plain step with SGD.
	resFull, err := AccumulateStep(full, batch, 8, NewSGD(0.1), chain.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// Micro-batches of 2 with gradient accumulation.
	resMicro, err := AccumulateStep(micro, batch, 2, NewSGD(0.1), chain.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if resMicro.MicroBatches != 4 || resFull.MicroBatches != 1 {
		t.Fatalf("micro-batch counts wrong: %d and %d", resMicro.MicroBatches, resFull.MicroBatches)
	}
	// The resulting parameters must agree (ReLU/Linear only, equal-size
	// micro-batches, so the averaged gradients are identical).
	pf, pm := full.Params(), micro.Params()
	for i := range pf {
		if !tensor.AllClose(pf[i].Value, pm[i].Value, 1e-9) {
			t.Fatalf("parameter %s diverged between full-batch and accumulated updates (max diff %v)",
				pf[i].Name, tensor.MaxAbsDiff(pf[i].Value, pm[i].Value))
		}
	}
	if math.Abs(resFull.Loss-resMicro.Loss) > 1e-9 {
		t.Fatalf("losses differ: %v vs %v", resFull.Loss, resMicro.Loss)
	}
}

func TestAccumulateReducesPeakBytes(t *testing.T) {
	rng := tensor.NewRNG(2)
	batch := makeBatch(rng, 16)
	big := linearOnlyChain(3)
	small := linearOnlyChain(3)
	resBig, err := AccumulateStep(big, batch, 16, NewSGD(0.01), chain.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	resSmall, err := AccumulateStep(small, batch, 2, NewSGD(0.01), chain.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.PeakStateBytes >= resBig.PeakStateBytes {
		t.Fatalf("micro-batching should reduce peak activation bytes: %d vs %d", resSmall.PeakStateBytes, resBig.PeakStateBytes)
	}
}

func TestAccumulateComposesWithCheckpointing(t *testing.T) {
	rng := tensor.NewRNG(4)
	batch := makeBatch(rng, 6)
	c := linearOnlyChain(5)
	res, err := AccumulateStep(c, batch, 3, NewSGD(0.05), chain.Policy{Kind: "revolve", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Chain has 3 stages; Revolve with one slot retains at most 2 states.
	if res.PeakStates > 2 {
		t.Fatalf("checkpointed accumulation retained %d states", res.PeakStates)
	}
}

func TestAccumulateStepValidation(t *testing.T) {
	c := linearOnlyChain(6)
	rng := tensor.NewRNG(7)
	if _, err := AccumulateStep(c, Batch{}, 2, NewSGD(0.1), chain.Policy{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := makeBatch(rng, 4)
	bad.Labels = bad.Labels[:2]
	if _, err := AccumulateStep(c, bad, 2, NewSGD(0.1), chain.Policy{}); err == nil {
		t.Fatal("label/image mismatch accepted")
	}
	good := makeBatch(rng, 4)
	if _, err := AccumulateStep(c, good, 2, nil, chain.Policy{}); err == nil {
		t.Fatal("nil optimiser accepted")
	}
	// Oversized micro-batch clamps to the batch size.
	res, err := AccumulateStep(c, good, 99, NewSGD(0.1), chain.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MicroBatches != 1 {
		t.Fatalf("oversized micro-batch should clamp, got %d micro-batches", res.MicroBatches)
	}
}
