package nn

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// The accumulation contract on Layer: Backward adds each parameter's
// whole-call contribution to Grad with a single element-wise addition. The
// observable consequence pinned here is exact: accumulating batches A then B
// without zeroing produces bit-for-bit the same gradients as folding the two
// per-batch gradients with one tensor addition. Per-sample accumulation into
// Grad (the bug this guards against) breaks the equality because floating-
// point addition is not associative. The fleet package's gradient all-reduce
// relies on this to be bit-identical to single-node accumulation.

func cloneGrads(l Layer) []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, p := range l.Params() {
		gs = append(gs, p.Grad.Clone())
	}
	return gs
}

func runStep(l Layer, x, upstream *tensor.Tensor) {
	out := l.Forward(x, true)
	if !out.SameShape(upstream) {
		panic("test upstream gradient shape mismatch")
	}
	l.Backward(upstream)
}

func TestBackwardSingleAddAccumulation(t *testing.T) {
	rng := tensor.NewRNG(11)
	cases := []struct {
		name  string
		layer Layer
		shape []int // input shape, batch first
	}{
		{"linear-bias", NewLinear("fc", 6, 5, true, rng), []int{4, 6}},
		{"conv-bias", NewConv2D("conv", 2, 3, 3, 1, 1, true, rng), []int{3, 2, 6, 6}},
		{"batchnorm", NewBatchNorm2D("bn", 3), []int{3, 3, 5, 5}},
		{"basicblock", NewBasicBlock("blk", 3, 6, 2, rng), []int{2, 3, 8, 8}},
		{"bottleneck", NewBottleneck("bneck", 4, 2, 2, rng), []int{2, 4, 6, 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tensor.RandNormal(rng, 0, 1, tc.shape...)
			b := tensor.RandNormal(rng, 0, 1, tc.shape...)
			outShape := tc.layer.OutputShape(tc.shape)
			ga := tensor.RandNormal(rng, 0, 1, outShape...)
			gb := tensor.RandNormal(rng, 0, 1, outShape...)

			ZeroGrads([]Layer{tc.layer})
			runStep(tc.layer, a, ga)
			gradA := cloneGrads(tc.layer)
			runStep(tc.layer, b, gb)
			accumulated := cloneGrads(tc.layer)

			ZeroGrads([]Layer{tc.layer})
			runStep(tc.layer, b, gb)
			gradB := cloneGrads(tc.layer)

			for i := range gradA {
				folded := gradA[i].Clone().AddInPlace(gradB[i])
				fd, ad := folded.Data(), accumulated[i].Data()
				for j := range fd {
					if fd[j] != ad[j] {
						t.Fatalf("param %d (%s) element %d: accumulated %v != folded %v",
							i, tc.layer.Params()[i].Name, j, ad[j], fd[j])
					}
				}
			}
		})
	}
}
