package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReLUSpecialValues pins ReLU to the definition it had while it kept a
// mask: the forward keeps x where x > 0 and writes +0 everywhere else (NaN
// and −0 included), and the backward passes g unchanged exactly where the
// input was > 0, writing +0 elsewhere whatever g is.
func TestReLUSpecialValues(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	xs := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), sub, -sub, 1, -1}
	gs := []float64{math.Copysign(0, -1), 0, math.NaN(), -2.5, 1, math.Inf(-1), -sub}
	x := tensor.New(len(xs), len(gs))
	g := tensor.New(len(xs), len(gs))
	for i, xv := range xs {
		for j, gv := range gs {
			x.Set(xv, i, j)
			g.Set(gv, i, j)
		}
	}
	r := NewReLU("relu")
	out := r.Forward(x, true)
	gin := r.Backward(g)
	for i, xv := range xs {
		wantOut, wantIn := 0.0, 0.0
		for j, gv := range gs {
			if xv > 0 {
				wantOut, wantIn = xv, gv
			}
			if got := out.At(i, j); math.Float64bits(got) != math.Float64bits(wantOut) {
				t.Errorf("ReLU(%v) = %v (bits %#x), want %v", xv, got, math.Float64bits(got), wantOut)
			}
			if got := gin.At(i, j); math.Float64bits(got) != math.Float64bits(wantIn) {
				t.Errorf("ReLU'(%v)·%v = %v (bits %#x), want %v", xv, gv, got, math.Float64bits(got), wantIn)
			}
		}
	}
}

// randomizeNorms gives the batch norms non-trivial gamma, beta and running
// statistics drawn from seed, so a block and its copy can be set alike.
func randomizeNorms(seed uint64, bns ...*BatchNorm2D) {
	rng := tensor.NewRNG(seed)
	for _, bn := range bns {
		for _, t := range []*tensor.Tensor{bn.Gamma.Value, bn.Beta.Value, bn.RunningMean} {
			copy(t.Data(), tensor.RandNormal(rng, 0, 0.5, bn.C).Data())
		}
		for i := range bn.RunningVar.Data() {
			bn.RunningVar.Data()[i] = 0.5 + rng.Float64()
		}
	}
}

// layerByLayer dispatches to the block's layer-by-layer run.
func layerByLayer(l Layer, x, gOut *tensor.Tensor, train bool) (out, gIn *tensor.Tensor) {
	if b, ok := l.(*BasicBlock); ok {
		return basicLayerByLayer(b, x, gOut, train)
	}
	return bottleneckLayerByLayer(l.(*Bottleneck), x, gOut, train)
}

// basicLayerByLayer runs b's forward and backward through its public layers
// one at a time, with the residual sum done by AddInPlace.
func basicLayerByLayer(b *BasicBlock, x, gOut *tensor.Tensor, train bool) (out, gIn *tensor.Tensor) {
	h := b.Relu1.Forward(b.BN1.Forward(b.Conv1.Forward(x, train), train), train)
	h = b.BN2.Forward(b.Conv2.Forward(h, train), train)
	id := x
	if b.DownConv != nil {
		id = b.DownBN.Forward(b.DownConv.Forward(x, train), train)
	}
	out = b.reluOut.Forward(h.AddInPlace(id), train)

	g := b.reluOut.Backward(gOut)
	gm := b.Conv1.Backward(b.BN1.Backward(b.Relu1.Backward(b.Conv2.Backward(b.BN2.Backward(g)))))
	if b.DownConv != nil {
		g = b.DownConv.Backward(b.DownBN.Backward(g))
	}
	return out, gm.AddInPlace(g)
}

// bottleneckLayerByLayer is basicLayerByLayer for a Bottleneck.
func bottleneckLayerByLayer(b *Bottleneck, x, gOut *tensor.Tensor, train bool) (out, gIn *tensor.Tensor) {
	h := b.Relu1.Forward(b.BN1.Forward(b.Conv1.Forward(x, train), train), train)
	h = b.Relu2.Forward(b.BN2.Forward(b.Conv2.Forward(h, train), train), train)
	h = b.BN3.Forward(b.Conv3.Forward(h, train), train)
	id := x
	if b.DownConv != nil {
		id = b.DownBN.Forward(b.DownConv.Forward(x, train), train)
	}
	out = b.reluOut.Forward(h.AddInPlace(id), train)

	g := b.reluOut.Backward(gOut)
	gm := b.Relu2.Backward(b.Conv3.Backward(b.BN3.Backward(g)))
	gm = b.Conv1.Backward(b.BN1.Backward(b.Relu1.Backward(b.Conv2.Backward(b.BN2.Backward(gm)))))
	if b.DownConv != nil {
		g = b.DownConv.Backward(b.DownBN.Backward(g))
	}
	return out, gm.AddInPlace(g)
}

// norms lists a residual block's batch norms, the downsampling one last if
// the block has it.
func norms(l Layer) []*BatchNorm2D {
	var bns []*BatchNorm2D
	var down *BatchNorm2D
	switch b := l.(type) {
	case *BasicBlock:
		bns, down = []*BatchNorm2D{b.BN1, b.BN2}, b.DownBN
	case *Bottleneck:
		bns, down = []*BatchNorm2D{b.BN1, b.BN2, b.BN3}, b.DownBN
	}
	if down != nil {
		bns = append(bns, down)
	}
	return bns
}

// TestResidualBlocksMatchLayerByLayer checks the blocks' fused batch norm →
// shortcut add → ReLU pass against the same layers run one by one on a copy
// of the block: output, input gradient, every parameter gradient and the
// running statistics must be bit-equal, in train and in eval mode. Channel
// counts 3, 6 and 12 reach the batch-norm kernels' per-channel tail as well
// as their four-channel groups.
func TestResidualBlocksMatchLayerByLayer(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *tensor.RNG) Layer
		in    []int
	}{
		{"basic/identity/3ch", func(rng *tensor.RNG) Layer { return NewBasicBlock("b", 3, 3, 1, rng) }, []int{2, 3, 5, 5}},
		{"basic/identity/8ch", func(rng *tensor.RNG) Layer { return NewBasicBlock("b", 8, 8, 1, rng) }, []int{3, 8, 4, 4}},
		{"basic/downsample/3to6", func(rng *tensor.RNG) Layer { return NewBasicBlock("b", 3, 6, 2, rng) }, []int{2, 3, 6, 6}},
		{"bottleneck/downsample/6to12", func(rng *tensor.RNG) Layer { return NewBottleneck("b", 6, 3, 2, rng) }, []int{2, 6, 5, 5}},
		{"bottleneck/identity/12ch", func(rng *tensor.RNG) Layer { return NewBottleneck("b", 12, 3, 1, rng) }, []int{2, 12, 3, 3}},
	}
	for ci, tc := range cases {
		for _, train := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/train=%v", tc.name, train), func(t *testing.T) {
				seed := uint64(ci + 1)
				fused, ref := tc.build(tensor.NewRNG(seed)), tc.build(tensor.NewRNG(seed))
				randomizeNorms(seed, norms(fused)...)
				randomizeNorms(seed, norms(ref)...)
				rng := tensor.NewRNG(seed + 100)
				x := tensor.RandNormal(rng, 0, 1, tc.in...)
				// Two steps, so the second forward reads running statistics
				// the first one moved.
				for step := 0; step < 2; step++ {
					out := fused.Forward(x, train)
					gOut := tensor.RandNormal(rng, 0, 1, out.Shape()...)
					gIn := fused.Backward(gOut)
					wantOut, wantIn := layerByLayer(ref, x, gOut, train)
					if !sameBits(out.Data(), wantOut.Data()) {
						t.Fatalf("step %d: output differs from the layer-by-layer run", step)
					}
					if !sameBits(gIn.Data(), wantIn.Data()) {
						t.Fatalf("step %d: input gradient differs from the layer-by-layer run", step)
					}
					fp, rp := fused.Params(), ref.Params()
					for i := range fp {
						if !sameBits(fp[i].Grad.Data(), rp[i].Grad.Data()) {
							t.Fatalf("step %d: gradient of %s differs from the layer-by-layer run", step, fp[i].Name)
						}
					}
					fs, rs := fused.(Stateful).StateTensors(), ref.(Stateful).StateTensors()
					for i := range fs {
						if !sameBits(fs[i].Tensor.Data(), rs[i].Tensor.Data()) {
							t.Fatalf("step %d: %s differs from the layer-by-layer run", step, fs[i].Name)
						}
					}
				}
			})
		}
	}
}

// channel copies channel ch of an NCHW tensor into an N×1×H×W one.
func channel(x *tensor.Tensor, ch int) *tensor.Tensor {
	n, c, area := x.Dim(0), x.Dim(1), x.Dim(2)*x.Dim(3)
	out := tensor.New(n, 1, x.Dim(2), x.Dim(3))
	for b := 0; b < n; b++ {
		copy(out.Data()[b*area:(b+1)*area], x.Data()[(b*c+ch)*area:(b*c+ch+1)*area])
	}
	return out
}

// TestBatchNormChannelGroupsMatchOneByOne checks batch norm's four-channel
// kernels against its per-channel tail: a C-channel layer must give, bit for
// bit, what C one-channel layers (all tail) give on its channels — output,
// input gradient, gamma and beta gradients and running statistics, in train
// and eval mode. With C = 6 the layer itself runs one group and a tail.
func TestBatchNormChannelGroupsMatchOneByOne(t *testing.T) {
	for _, c := range []int{6, 8} {
		for _, train := range []bool{true, false} {
			rng := tensor.NewRNG(uint64(c))
			bn := NewBatchNorm2D("bn", c)
			randomizeNorms(uint64(c), bn)
			x := tensor.RandNormal(rng, 0.3, 2, 3, c, 5, 5)
			g := tensor.RandNormal(rng, 0, 1, 3, c, 5, 5)
			rm, rv := bn.RunningMean.Clone(), bn.RunningVar.Clone() // as the forward finds them
			out := bn.Forward(x, train)
			gIn := bn.Backward(g)
			for ch := 0; ch < c; ch++ {
				one := NewBatchNorm2D("one", 1)
				one.Gamma.Value.Data()[0], one.Beta.Value.Data()[0] = bn.Gamma.Value.Data()[ch], bn.Beta.Value.Data()[ch]
				one.RunningMean.Data()[0], one.RunningVar.Data()[0] = rm.Data()[ch], rv.Data()[ch]
				oneOut := one.Forward(channel(x, ch), train)
				oneIn := one.Backward(channel(g, ch))
				got := []float64{bn.Gamma.Grad.Data()[ch], bn.Beta.Grad.Data()[ch], bn.RunningMean.Data()[ch], bn.RunningVar.Data()[ch]}
				want := []float64{one.Gamma.Grad.Data()[0], one.Beta.Grad.Data()[0], one.RunningMean.Data()[0], one.RunningVar.Data()[0]}
				if !sameBits(got, want) {
					t.Fatalf("C=%d train=%v channel %d: gamma, beta gradients and running mean, var %v; the channel alone %v", c, train, ch, got, want)
				}
				if !sameBits(channel(out, ch).Data(), oneOut.Data()) || !sameBits(channel(gIn, ch).Data(), oneIn.Data()) {
					t.Fatalf("C=%d train=%v channel %d: output or input gradient differs from the channel alone", c, train, ch)
				}
			}
		}
	}
}

// BenchmarkNormActNodeShapes times the blocks' batch norm → ReLU pass
// forward and backward, and batch norm → shortcut add → ReLU forward, at
// the node model's four block shapes (channels × plane), batch 8, one
// worker.
func BenchmarkNormActNodeShapes(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const batch = 8
	rng := tensor.NewRNG(5)
	for _, s := range [][2]int{{8, 16}, {16, 8}, {32, 4}, {64, 2}} {
		c, plane := s[0], s[1]
		x := tensor.RandNormal(rng, 0, 1, batch, c, plane, plane)
		res := tensor.RandNormal(rng, 0, 1, batch, c, plane, plane)
		g := tensor.RandNormal(rng, 0, 1, batch, c, plane, plane)
		bn, relu := NewBatchNorm2D("bn", c), NewReLU("relu")
		name := fmt.Sprintf("%dx%dx%d", c, plane, plane)
		b.Run("bn-relu/fwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bn.forward(x, true, nil, relu)
			}
		})
		b.Run("bn-relu/bwd/"+name, func(b *testing.B) {
			bn.forward(x, true, nil, relu)
			for i := 0; i < b.N; i++ {
				bn.Backward(relu.Backward(g))
			}
		})
		b.Run("bn-add-relu/fwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bn.forward(x, true, res, relu)
			}
		})
	}
}
