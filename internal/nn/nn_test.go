package nn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// scalarLoss turns a layer output into a deterministic scalar so that
// numerical differentiation has a single value to probe.
func scalarLoss(out, lossW *tensor.Tensor) float64 { return tensor.Dot(out, lossW) }

// checkLayerGradients compares the analytic input and parameter gradients of
// a layer against central finite differences on a handful of random indices.
func checkLayerGradients(t *testing.T, layer Layer, input *tensor.Tensor, rng *tensor.RNG, probes int, tol float64) {
	t.Helper()
	out := layer.Forward(input, true)
	lossW := tensor.RandNormal(rng, 0, 1, out.Shape()...)

	loss := func() float64 {
		return scalarLoss(layer.Forward(input, true), lossW)
	}

	// Analytic pass.
	ZeroGrads([]Layer{layer})
	layer.Forward(input, true)
	gradIn := layer.Backward(lossW.Clone())

	const eps = 1e-5
	probe := func(name string, value *tensor.Tensor, analytic *tensor.Tensor) {
		for p := 0; p < probes; p++ {
			idx := rng.Intn(value.Size())
			orig := value.Data()[idx]
			value.Data()[idx] = orig + eps
			up := loss()
			value.Data()[idx] = orig - eps
			down := loss()
			value.Data()[idx] = orig
			numeric := (up - down) / (2 * eps)
			got := analytic.Data()[idx]
			if math.Abs(numeric-got) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("%s: gradient mismatch at flat index %d: numeric %v, analytic %v", name, idx, numeric, got)
			}
		}
	}
	probe(layer.Name()+" input", input, gradIn)
	for _, prm := range layer.Params() {
		probe(prm.Name, prm.Value, prm.Grad)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float64{-1, 0, 2, -3, 4, 5}, 2, 3)
	out := r.Forward(x, true)
	want := []float64{0, 0, 2, 0, 4, 5}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("ReLU forward[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
	grad := tensor.Ones(2, 3)
	gin := r.Backward(grad)
	wantG := []float64{0, 0, 1, 0, 1, 1}
	for i, v := range wantG {
		if gin.Data()[i] != v {
			t.Fatalf("ReLU backward[%d] = %v, want %v", i, gin.Data()[i], v)
		}
	}
	if r.OutputShape([]int{4, 7})[1] != 7 {
		t.Fatal("ReLU OutputShape should be identity")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flatten")
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 4, 4)
	out := f.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 48 {
		t.Fatalf("Flatten shape wrong: %v", out.Shape())
	}
	g := f.Backward(out)
	if g.Rank() != 4 || g.Dim(3) != 4 {
		t.Fatalf("Flatten backward shape wrong: %v", g.Shape())
	}
	if !tensor.AllClose(g, x, 0) {
		t.Fatal("Flatten forward+backward should round-trip values")
	}
}

func TestLinearKnownValues(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("fc", 2, 2, true, rng)
	l.W.Value = tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2) // W[out][in]
	l.B.Value = tensor.FromSlice([]float64{10, 20}, 2)
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := l.Forward(x, true)
	// y0 = 1*1 + 2*1 + 10 = 13 ; y1 = 3+4+20 = 27
	if out.At(0, 0) != 13 || out.At(0, 1) != 27 {
		t.Fatalf("Linear forward wrong: %v", out)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear("fc", 7, 5, true, rng)
	x := tensor.RandNormal(rng, 0, 1, 4, 7)
	checkLayerGradients(t, l, x, rng, 15, 1e-4)
}

func TestLinearNoBiasGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := NewLinear("fc", 6, 3, false, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 6)
	checkLayerGradients(t, l, x, rng, 10, 1e-4)
}

func TestConv2DLayerGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewConv2D("conv", 2, 3, 3, 1, 1, true, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5)
	checkLayerGradients(t, c, x, rng, 12, 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	c := NewConv2D("conv_s2", 3, 4, 3, 2, 1, false, rng)
	x := tensor.RandNormal(rng, 0, 1, 1, 3, 7, 7)
	checkLayerGradients(t, c, x, rng, 12, 1e-4)
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.RandNormal(rng, 1, 2, 2, 3, 4, 4)
	checkLayerGradients(t, bn, x, rng, 12, 2e-3)
}

func TestBatchNormTrainOutputIsNormalized(t *testing.T) {
	rng := tensor.NewRNG(8)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.RandNormal(rng, 5, 3, 4, 2, 6, 6)
	out := bn.Forward(x, true)
	// Per-channel mean should be ~0 and variance ~1 (gamma=1, beta=0).
	n, c, h, w := 4, 2, 6, 6
	for ch := 0; ch < c; ch++ {
		sum, sq := 0.0, 0.0
		count := 0
		for b := 0; b < n; b++ {
			for i := 0; i < h; i++ {
				for j := 0; j < w; j++ {
					v := out.At(b, ch, i, j)
					sum += v
					sq += v * v
					count++
				}
			}
		}
		mean := sum / float64(count)
		variance := sq/float64(count) - mean*mean
		if math.Abs(mean) > 1e-6 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d not normalised: mean=%v var=%v", ch, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(9)
	bn := NewBatchNorm2D("bn", 1)
	// Train on a few batches so running statistics move away from (0, 1).
	for i := 0; i < 20; i++ {
		x := tensor.RandNormal(rng, 10, 2, 4, 1, 3, 3)
		bn.Forward(x, true)
	}
	if bn.RunningMean.At(0) < 5 {
		t.Fatalf("running mean did not track batch mean: %v", bn.RunningMean.At(0))
	}
	// In eval mode, a constant input equal to the running mean should map to ~beta.
	x := tensor.Full(bn.RunningMean.At(0), 1, 1, 3, 3)
	out := bn.Forward(x, false)
	if math.Abs(out.At(0, 0, 1, 1)) > 1e-6 {
		t.Fatalf("eval-mode output for running-mean input should be ~0, got %v", out.At(0, 0, 1, 1))
	}
}

func TestMaxPoolLayerGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := NewMaxPool2D("pool", 2, 2)
	// Use distinct values to avoid ties, which break finite differences.
	x := tensor.Arange(2*2*6*6).Reshape(2, 2, 6, 6)
	x.Apply(func(v float64) float64 { return v + 0.001*math.Sin(v) })
	checkLayerGradients(t, m, x, rng, 10, 1e-4)
}

func TestGlobalAvgPoolLayerGradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	g := NewGlobalAvgPool2D("gap")
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 5, 5)
	checkLayerGradients(t, g, x, rng, 10, 1e-4)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	ce := NewSoftmaxCrossEntropy()
	// Uniform logits over 4 classes -> loss = ln(4).
	logits := tensor.New(2, 4)
	loss := ce.Forward(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform loss = %v, want ln(4)=%v", loss, math.Log(4))
	}
	// Gradient rows must sum to zero (softmax minus one-hot).
	g := ce.Backward()
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += g.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d sums to %v, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyGradientNumerical(t *testing.T) {
	rng := tensor.NewRNG(13)
	logits := tensor.RandNormal(rng, 0, 2, 3, 5)
	labels := []int{1, 4, 0}
	ce := NewSoftmaxCrossEntropy()
	ce.Forward(logits, labels)
	grad := ce.Backward()
	const eps = 1e-6
	for probe := 0; probe < 10; probe++ {
		idx := rng.Intn(logits.Size())
		orig := logits.Data()[idx]
		logits.Data()[idx] = orig + eps
		up := ce.Forward(logits, labels)
		logits.Data()[idx] = orig - eps
		down := ce.Forward(logits, labels)
		logits.Data()[idx] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-grad.Data()[idx]) > 1e-5 {
			t.Fatalf("CE grad mismatch at %d: %v vs %v", idx, numeric, grad.Data()[idx])
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 5, 2,
		9, 0, 1,
		0, 1, 8,
		3, 2, 1,
	}, 4, 3)
	acc := Accuracy(logits, []int{1, 0, 2, 2})
	if math.Abs(acc-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 0.75", acc)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("Accuracy of empty batch should be 0")
	}
}

func TestBasicBlockShapesAndGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	blk := NewBasicBlock("block", 4, 8, 2, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 4, 8, 8)
	out := blk.Forward(x, true)
	wantShape := blk.OutputShape(x.Shape())
	for i, d := range wantShape {
		if out.Dim(i) != d {
			t.Fatalf("BasicBlock output shape %v, want %v", out.Shape(), wantShape)
		}
	}
	checkLayerGradients(t, blk, x, rng, 8, 5e-3)
}

func TestBasicBlockIdentityShortcutGradients(t *testing.T) {
	rng := tensor.NewRNG(15)
	blk := NewBasicBlock("block_id", 4, 4, 1, rng)
	if blk.DownConv != nil {
		t.Fatal("identity block should not have a downsample path")
	}
	x := tensor.RandNormal(rng, 0, 1, 1, 4, 6, 6)
	checkLayerGradients(t, blk, x, rng, 8, 5e-3)
}

func TestBottleneckShapesAndGradients(t *testing.T) {
	rng := tensor.NewRNG(16)
	blk := NewBottleneck("bneck", 8, 2, 2, rng)
	x := tensor.RandNormal(rng, 0, 1, 1, 8, 8, 8)
	out := blk.Forward(x, true)
	if out.Dim(1) != 2*BottleneckExpansion {
		t.Fatalf("Bottleneck output channels %d, want %d", out.Dim(1), 2*BottleneckExpansion)
	}
	if out.Dim(2) != 4 {
		t.Fatalf("Bottleneck stride-2 spatial size %d, want 4", out.Dim(2))
	}
	checkLayerGradients(t, blk, x, rng, 6, 5e-3)
}

func TestSequentialComposition(t *testing.T) {
	rng := tensor.NewRNG(17)
	seq := NewSequential("mlp",
		NewLinear("fc1", 10, 16, true, rng),
		NewReLU("relu1"),
		NewLinear("fc2", 16, 4, true, rng),
	)
	x := tensor.RandNormal(rng, 0, 1, 3, 10)
	out := seq.Forward(x, true)
	if out.Dim(0) != 3 || out.Dim(1) != 4 {
		t.Fatalf("Sequential output shape wrong: %v", out.Shape())
	}
	if got := seq.OutputShape([]int{3, 10}); got[1] != 4 {
		t.Fatalf("Sequential OutputShape wrong: %v", got)
	}
	if len(seq.Params()) != 4 {
		t.Fatalf("Sequential should expose 4 params, got %d", len(seq.Params()))
	}
	if seq.Len() != 3 || seq.At(1).Name() != "relu1" {
		t.Fatal("Sequential Len/At wrong")
	}
	checkLayerGradients(t, seq, x, rng, 10, 1e-4)
}

func TestZeroGrads(t *testing.T) {
	rng := tensor.NewRNG(18)
	l := NewLinear("fc", 3, 2, true, rng)
	layers := []Layer{l, NewReLU("r")}
	l.W.Grad.Fill(5)
	ZeroGrads(layers)
	if l.W.Grad.Sum() != 0 {
		t.Fatal("ZeroGrads did not clear gradients")
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := tensor.NewRNG(19)
	conv := NewConv2D("c", 3, 64, 7, 2, 3, false, rng)
	st := conv.Stats([]int{1, 3, 224, 224})
	if st.ParamCount != 64*3*7*7 {
		t.Fatalf("conv param count %d, want %d", st.ParamCount, 64*3*7*7)
	}
	if st.OutputElems != 64*112*112 {
		t.Fatalf("conv output elems %d, want %d", st.OutputElems, 64*112*112)
	}
	lin := NewLinear("fc", 512, 1000, true, rng)
	ls := lin.Stats([]int{8, 512})
	if ls.ParamCount != 512*1000+1000 {
		t.Fatalf("linear param count %d", ls.ParamCount)
	}
	if ls.ActivationElems != 8*512 {
		t.Fatalf("linear activation elems %d", ls.ActivationElems)
	}
	// Sequential Stats aggregates.
	seq := NewSequential("net", conv, NewReLU("r"))
	ss := seq.Stats([]int{1, 3, 224, 224})
	if ss.ParamCount != st.ParamCount {
		t.Fatalf("sequential param count %d, want %d", ss.ParamCount, st.ParamCount)
	}
	if ss.ActivationElems <= st.ActivationElems {
		t.Fatal("sequential activations should include the ReLU contribution")
	}
}

func TestBatchSizeScalingOfStats(t *testing.T) {
	rng := tensor.NewRNG(20)
	conv := NewConv2D("c", 3, 16, 3, 1, 1, false, rng)
	s1 := conv.Stats([]int{1, 3, 32, 32})
	s4 := conv.Stats([]int{4, 3, 32, 32})
	if s4.ActivationElems != 4*s1.ActivationElems {
		t.Fatalf("activation elements should scale linearly with batch: %d vs 4*%d", s4.ActivationElems, s1.ActivationElems)
	}
	if s4.ParamCount != s1.ParamCount {
		t.Fatal("parameter count must not depend on batch size")
	}
}

// Property: ReLU output is always non-negative and idempotent.
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		x := tensor.RandNormal(rng, 0, 5, 2, 8)
		r := NewReLU("r")
		once := r.Forward(x, true)
		lo, _ := once.Min()
		if lo < 0 {
			return false
		}
		twice := r.Forward(once, true)
		return tensor.AllClose(once, twice, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the softmax cross-entropy loss of any logits is at least the loss
// achieved by the true posterior, and is always non-negative.
func TestCrossEntropyNonNegativeProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		n, c := 1+rng.Intn(5), 2+rng.Intn(5)
		logits := tensor.RandNormal(rng, 0, 3, n, c)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		ce := NewSoftmaxCrossEntropy()
		return ce.Forward(logits, labels) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Linear layer is additive in its input: f(a+b) = f(a)+f(b)-f(0).
func TestLinearAffineProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		l := NewLinear("fc", 5, 3, true, rng)
		a := tensor.RandNormal(rng, 0, 1, 2, 5)
		b := tensor.RandNormal(rng, 0, 1, 2, 5)
		zero := tensor.New(2, 5)
		fa := l.Forward(a, true)
		fb := l.Forward(b, true)
		f0 := l.Forward(zero, true)
		fab := l.Forward(tensor.Add(a, b), true)
		rhs := tensor.Sub(tensor.Add(fa, fb), f0)
		return tensor.AllClose(fab, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
