// Flash spill: the Section VI two-level scheme as a running system.
//
// A Waggle-class node has plenty of SD card but very little RAM. This demo
// builds a chain whose store-all execution provably cannot fit a small RAM
// budget, asks the budget-aware "auto" planner what to do, and trains with a
// tiered checkpoint store that really serializes the flash-tier states to
// disk — then double-checks that the spilled execution produced exactly the
// gradients of plain backpropagation while keeping its resident RAM under
// the budget.
//
// Run with: go run ./examples/flash_spill
package main

import (
	"fmt"
	"log"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/store"
)

// buildChain makes a 24-stage convolutional chain; every inter-stage state
// is a 4x8x16x16 tensor (64 kB at fp64).
func buildChain(seed uint64) (*chain.Chain, *tensor.Tensor) {
	rng := tensor.NewRNG(seed)
	layers := []nn.Layer{nn.NewConv2D("in", 8, 8, 3, 1, 1, true, rng)}
	for i := 0; i < 22; i++ {
		layers = append(layers, nn.NewBasicBlock(fmt.Sprintf("blk%d", i), 8, 8, 1, rng))
	}
	layers = append(layers, nn.NewConv2D("out", 8, 8, 3, 1, 1, true, rng))
	c := chain.New(layers...)
	x := tensor.RandNormal(rng, 0, 1, 4, 8, 16, 16)
	return c, x
}

func main() {
	cPlain, x := buildChain(7)
	cSpill, _ := buildChain(7)
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor { return tensor.Scale(1/float64(out.Size()), out) }

	// The no-checkpointing baseline: how much RAM does store-all retain?
	plain, err := chain.ExecutePlain(cPlain, x, lossGrad, true)
	if err != nil {
		log.Fatal(err)
	}
	weights := 2 * nn.ParamBytes(cSpill.Stages)
	storeAll := weights + plain.PeakStateBytes
	fmt.Printf("chain: %d stages, %.0f kB per state, %.0f kB weight state\n",
		cSpill.Len(), float64(x.Bytes())/1e3, float64(weights)/1e3)
	fmt.Printf("store-all needs %.0f kB resident\n", float64(storeAll)/1e3)

	// A budget store-all provably cannot fit: the weight state plus room for
	// just four retained states, where store-all retains twenty-five — tight
	// enough that even pure Revolve is beaten by spilling to flash.
	budget := weights + 4*x.Bytes()
	fmt.Printf("device budget: %.0f kB — store-all does not fit (%v)\n\n",
		float64(budget)/1e3, storeAll <= budget)

	spec := plan.ChainSpec{Length: cSpill.Len(), WeightBytes: weights, ActivationBytes: x.Bytes()}
	choice, err := plan.AutoSelect(spec, plan.Options{MemoryBudget: budget})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("planner choice:", choice)

	sched, err := plan.Build("auto", spec, plan.Options{MemoryBudget: budget})
	if err != nil {
		log.Fatal(err)
	}

	// Execute with a tiered store: RAM-tier slots stay references, flash-tier
	// slots are serialized to a spill directory on disk.
	ts, err := store.NewTiered("")
	if err != nil {
		log.Fatal(err)
	}
	defer ts.Close()
	res, err := chain.ExecuteWithStore(cSpill, x, lossGrad, sched, ts, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted %s in %s\n", sched.Policy, ts.Dir())
	fmt.Printf("  resident peak: %.0f kB states (+%.0f kB weights = %.0f kB, under budget: %v)\n",
		float64(res.PeakStateBytes)/1e3, float64(weights)/1e3,
		float64(weights+res.PeakStateBytes)/1e3, weights+res.PeakStateBytes <= budget)
	fmt.Printf("  flash: peak %.0f kB, %d writes, %d reads\n",
		float64(res.PeakDiskBytes)/1e3, res.DiskWrites, res.DiskReads)
	fmt.Printf("  recompute: %d forwards for %d stages\n", res.ForwardEvals, cSpill.Len())

	// And the point of it all: the gradients are exact.
	match := tensor.AllClose(plain.InputGrad, res.InputGrad, 1e-9)
	pp, sp := cPlain.Params(), cSpill.Params()
	for i := range pp {
		match = match && tensor.AllClose(pp[i].Grad, sp[i].Grad, 1e-9)
	}
	fmt.Printf("\ngradients identical to plain backpropagation: %v\n", match)
	if !match {
		log.Fatal("gradient mismatch")
	}
}
