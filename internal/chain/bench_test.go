package chain

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// nodeStep returns one chain step (ZeroGrads + Step, no optimiser) of the
// repository benchmark's node model — BuildSmall{ResNet34, Stages 4,
// BaseWidth 8}, batch 8 of 16×16 — under pol, after five warm-up steps that
// bring scratch pools and layer buffers to their steady size.
func nodeStep(tb testing.TB, pol Policy) func() {
	const classes = 4
	net, err := resnet.BuildSmall(resnet.SmallConfig{
		Variant: resnet.ResNet34, InputChannels: 1, NumClasses: classes,
		BaseWidth: 8, Stages: 4, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c := FromSequential(net)
	x := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 8, 1, 16, 16)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		ce := nn.NewSoftmaxCrossEntropy()
		ce.Forward(out, labels)
		return ce.Backward()
	}
	step := func() {
		c.ZeroGrads()
		if _, err := Step(c, x, lossGrad, pol, true); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}
	return step
}

// BenchmarkNodeStepWorkers is one node-model step (see nodeStep) under the
// two policies of the benchmark's node_storeall and node_revolve workloads,
// at one and two workers: the ratio of the two rows of a policy is what the
// second core buys. Run it with -cpu 2 (or more); at -cpu 1 every row runs
// inline.
func BenchmarkNodeStepWorkers(b *testing.B) {
	for _, pol := range []Policy{{Kind: "storeall"}, {Kind: "revolve", Slots: 3}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", pol.Kind, workers), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(workers))
				step := nodeStep(b, pol)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// TestStepAllocBudget keeps a training step from silently growing its
// garbage back: one warmed-up node-model step under revolve with 3 slots
// (the node_revolve workload's step, without the optimiser) must allocate
// at most 24 MB. It allocated 27.6 MB while ReLU kept a mask and batch norm
// an xhat copy beside fresh, separately zeroed ReLU and residual outputs,
// and 22.1 MB once batch norm, the residual add and ReLU ran as one pass.
// Under the race detector sync.Pool drops pooled buffers at random and the
// step allocates 52–55 MB, so there the budget is a loose 64 MB.
func TestStepAllocBudget(t *testing.T) {
	budget := 24e6
	if raceDetector {
		budget = 64e6
	}
	step := nodeStep(t, Policy{Kind: "revolve", Slots: 3})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%.1f MB allocated by one revolve-3 step", got/1e6)
	if got > budget {
		t.Fatalf("a revolve-3 step allocates %.1f MB: over the budget of %.0f MB", got/1e6, budget/1e6)
	}
}
