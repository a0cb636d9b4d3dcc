package nn

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// TestLayersBitIdenticalAcrossWorkerCounts runs a forward+backward pass of a
// small conv net (conv, batch norm, ReLU, basic and bottleneck blocks, max
// and global-average pooling) under worker counts 1 and many, asserting
// bit-identical outputs, input gradients and parameter gradients — the layer-level form of the engine's
// determinism guarantee (EDGETRAIN_WORKERS must only change wall-clock).
func TestLayersBitIdenticalAcrossWorkerCounts(t *testing.T) {
	build := func() (*Sequential, []Layer) {
		rng := tensor.NewRNG(3)
		layers := []Layer{
			NewConv2D("c1", 3, 8, 3, 1, 1, true, rng),
			NewBatchNorm2D("bn1", 8),
			NewReLU("r1"),
			NewBasicBlock("blk", 8, 16, 2, rng),
			NewBottleneck("bneck", 16, 4, 1, rng),
			NewMaxPool2D("mp", 2, 2),
			NewGlobalAvgPool2D("gap"),
		}
		return NewSequential("net", layers...), layers
	}

	run := func(workers int) (*tensor.Tensor, *tensor.Tensor, []*tensor.Tensor) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		net, _ := build()
		rng := tensor.NewRNG(17)
		x := tensor.RandNormal(rng, 0, 1, 2, 3, 12, 12)
		out := net.Forward(x, true)
		gradIn := net.Backward(tensor.Ones(out.Shape()...))
		var grads []*tensor.Tensor
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return out, gradIn, grads
	}

	refOut, refGrad, refParams := run(1)
	for _, w := range []int{2, 5} {
		out, gradIn, params := run(w)
		if d := tensor.MaxAbsDiff(refOut, out); d != 0 {
			t.Errorf("workers=%d: forward output differs from serial by %g", w, d)
		}
		if d := tensor.MaxAbsDiff(refGrad, gradIn); d != 0 {
			t.Errorf("workers=%d: input gradient differs from serial by %g", w, d)
		}
		for i := range refParams {
			if d := tensor.MaxAbsDiff(refParams[i], params[i]); d != 0 {
				t.Errorf("workers=%d: parameter gradient %d differs from serial by %g", w, i, d)
			}
		}
	}
}
