package chain

import (
	"fmt"
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// BenchmarkNodeStepWorkers is one chain step (ZeroGrads + Step, no optimiser)
// of the repository benchmark's node model — BuildSmall{ResNet34, Stages 4,
// BaseWidth 8}, batch 8 of 16×16 — under the two policies of its
// node_storeall and node_revolve workloads, at one and two workers: the ratio
// of the two rows of a policy is what the second core buys. Run it with
// -cpu 2 (or more); at -cpu 1 every row runs inline.
func BenchmarkNodeStepWorkers(b *testing.B) {
	const classes = 4
	for _, pol := range []Policy{{Kind: "storeall"}, {Kind: "revolve", Slots: 3}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", pol.Kind, workers), func(b *testing.B) {
				net, err := resnet.BuildSmall(resnet.SmallConfig{
					Variant: resnet.ResNet34, InputChannels: 1, NumClasses: classes,
					BaseWidth: 8, Stages: 4, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				c := FromSequential(net)
				x := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 8, 1, 16, 16)
				labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
				lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
					ce := nn.NewSoftmaxCrossEntropy()
					ce.Forward(out, labels)
					return ce.Backward()
				}
				defer parallel.SetWorkers(parallel.SetWorkers(workers))
				step := func() {
					c.ZeroGrads()
					if _, err := Step(c, x, lossGrad, pol, true); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < 5; i++ {
					step() // scratch pools and layer buffers reach their steady size
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}
