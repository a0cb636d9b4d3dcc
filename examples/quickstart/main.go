// Quickstart: the three questions the library answers, in thirty lines each.
//
//  1. Does training this model fit on an Edge node? (memory model, Tables I-III)
//  2. If not, what does optimal checkpointing buy me? (Revolve planner, Figure 1)
//  3. Does checkpointed backpropagation really produce the same gradients?
//     (the chain executor on a real, runnable network)
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/plan"
)

func main() {
	node := device.Waggle()
	fmt.Println("Edge node:", node)

	// 1. Memory: can we train ResNet-50 on 500x500 images at batch 8?
	fp, err := memmodel.Model(resnet.ResNet50, 500, 8, memmodel.DefaultAccounting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nResNet-50, image 500, batch 8 needs %.2f GB — fits the node: %v\n", fp.GB(), node.Fits(fp))

	// 2. Checkpointing: what recompute factor makes it fit?
	lin, err := memmodel.LinearChain(resnet.ResNet50, 500, 8, memmodel.DefaultAccounting)
	if err != nil {
		log.Fatal(err)
	}
	rho, slots, ok := checkpoint.MinRhoToFit(lin, node.MemoryBytes, checkpoint.DefaultCostModel, 4)
	fmt.Printf("with optimal (Revolve) checkpointing it fits using %d checkpoint slots at a recompute factor of %.2f (feasible: %v)\n",
		slots, rho, ok)
	res := checkpoint.MinSlotsForRho(lin.Length, 2.0, checkpoint.DefaultCostModel)
	fmt.Printf("at a recompute budget of rho=2.0 the planner needs %d slots -> %.0f MB peak instead of %.0f MB\n",
		res.Slots, float64(lin.MemoryWithSlots(res.Slots))/1e6, float64(lin.MemoryNoCheckpoint())/1e6)

	// 3. Execution: pick the planner from the public strategy registry, run
	//    one checkpointed training step on a real (small) network and confirm
	//    the gradients match plain backpropagation.
	fmt.Printf("\nregistered planning strategies: %v\n", plan.Strategies())
	rng := tensor.NewRNG(1)
	build := func() *chain.Chain {
		r := tensor.NewRNG(42)
		return chain.New(
			nn.NewConv2D("conv", 1, 4, 3, 1, 1, false, r),
			nn.NewBatchNorm2D("bn", 4),
			nn.NewReLU("relu"),
			nn.NewGlobalAvgPool2D("gap"),
			nn.NewLinear("fc", 4, 3, true, r),
		)
	}
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 12, 12)
	labels := []int{0, 2}
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		ce := nn.NewSoftmaxCrossEntropy()
		ce.Forward(out, labels)
		return ce.Backward()
	}

	plainChain, ckChain := build(), build()
	plain, err := chain.ExecutePlain(plainChain, x, lossGrad, true)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := plan.Build("revolve", plan.ChainSpec{Length: ckChain.Len()}, plan.Options{Slots: 2})
	if err != nil {
		log.Fatal(err)
	}
	ck, err := chain.Execute(ckChain, x, lossGrad, sched, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncheckpointed step: %d retained states (plain: %d), %d recomputed forwards, gradient max-diff %.2e\n",
		ck.PeakStates, plain.PeakStates, ck.ForwardEvals,
		tensor.MaxAbsDiff(plain.InputGrad, ck.InputGrad))
}
