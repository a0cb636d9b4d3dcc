package tensor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// naiveConv2D is a direct (slow) reference convolution used to validate the
// im2col implementation.
func naiveConv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	n, inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outC, _, kH, kW := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	outH := (inH+2*pad-kH)/stride + 1
	outW := (inW+2*pad-kW)/stride + 1
	out := New(n, outC, outH, outW)
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					acc := 0.0
					if bias != nil {
						acc = bias.At(oc)
					}
					for ic := 0; ic < inC; ic++ {
						for kh := 0; kh < kH; kh++ {
							for kw := 0; kw < kW; kw++ {
								ih := oh*stride - pad + kh
								iw := ow*stride - pad + kw
								if ih < 0 || ih >= inH || iw < 0 || iw >= inW {
									continue
								}
								acc += input.At(b, ic, ih, iw) * weight.At(oc, ic, kh, kw)
							}
						}
					}
					out.Set(acc, b, oc, oh, ow)
				}
			}
		}
	}
	return out
}

func TestConvGeomOutputSize(t *testing.T) {
	g := NewConvGeom(3, 224, 224, 64, 7, 7, 2, 3)
	if g.OutH != 112 || g.OutW != 112 {
		t.Fatalf("7x7 s2 p3 on 224 should give 112, got %dx%d", g.OutH, g.OutW)
	}
	g2 := NewConvGeom(64, 56, 56, 64, 3, 3, 1, 1)
	if g2.OutH != 56 || g2.OutW != 56 {
		t.Fatalf("3x3 s1 p1 should preserve size, got %dx%d", g2.OutH, g2.OutW)
	}
}

func TestConvGeomEmptyOutputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty output geometry")
		}
	}()
	NewConvGeom(1, 2, 2, 1, 5, 5, 1, 0)
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := NewRNG(21)
	cases := []struct {
		n, inC, h, w, outC, k, stride, pad int
	}{
		{1, 1, 5, 5, 1, 3, 1, 1},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 2, 7, 7, 3, 3, 2, 1},
		{2, 4, 6, 6, 2, 1, 1, 0},
		{1, 3, 9, 9, 5, 5, 2, 2},
	}
	for _, c := range cases {
		input := RandNormal(rng, 0, 1, c.n, c.inC, c.h, c.w)
		weight := RandNormal(rng, 0, 1, c.outC, c.inC, c.k, c.k)
		bias := RandNormal(rng, 0, 1, c.outC)
		got := Conv2D(input, weight, bias, c.stride, c.pad)
		want := naiveConv2D(input, weight, bias, c.stride, c.pad)
		if !AllClose(got, want, 1e-9) {
			t.Fatalf("Conv2D mismatch for case %+v: max diff %v", c, MaxAbsDiff(got, want))
		}
	}
}

func TestConv2DNoBias(t *testing.T) {
	rng := NewRNG(22)
	input := RandNormal(rng, 0, 1, 1, 2, 6, 6)
	weight := RandNormal(rng, 0, 1, 3, 2, 3, 3)
	got := Conv2D(input, weight, nil, 1, 1)
	want := naiveConv2D(input, weight, nil, 1, 1)
	if !AllClose(got, want, 1e-9) {
		t.Fatalf("Conv2D (no bias) mismatch: %v", MaxAbsDiff(got, want))
	}
}

// TestConv2DBackwardNumerical verifies all three gradients against central
// finite differences of a scalar loss sum(conv(x, w) * target).
func TestConv2DBackwardNumerical(t *testing.T) {
	rng := NewRNG(23)
	n, inC, h, w := 2, 2, 5, 5
	outC, k, stride, pad := 3, 3, 1, 1
	input := RandNormal(rng, 0, 1, n, inC, h, w)
	weight := RandNormal(rng, 0, 0.5, outC, inC, k, k)
	bias := RandNormal(rng, 0, 0.5, outC)
	// Loss weights so the loss is a non-trivial scalar function.
	out := Conv2D(input, weight, bias, stride, pad)
	lossW := RandNormal(rng, 0, 1, out.Shape()...)
	loss := func() float64 {
		o := Conv2D(input, weight, bias, stride, pad)
		return Dot(o, lossW)
	}
	gradOut := lossW // dLoss/dOut = lossW
	gi, gw, gb := Conv2DBackward(input, weight, true, gradOut, stride, pad)

	const eps = 1e-5
	checkGrad := func(name string, param, analytic *Tensor, count int) {
		for i := 0; i < count; i++ {
			idx := rng.Intn(param.Size())
			orig := param.Data()[idx]
			param.Data()[idx] = orig + eps
			up := loss()
			param.Data()[idx] = orig - eps
			down := loss()
			param.Data()[idx] = orig
			numeric := (up - down) / (2 * eps)
			got := analytic.Data()[idx]
			if math.Abs(numeric-got) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s grad mismatch at %d: numeric %v vs analytic %v", name, idx, numeric, got)
			}
		}
	}
	checkGrad("input", input, gi, 20)
	checkGrad("weight", weight, gw, 20)
	checkGrad("bias", bias, gb, 3)
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the two operators must be adjoint,
	// which is exactly what the conv backward pass relies on.
	rng := NewRNG(29)
	g := NewConvGeom(3, 6, 6, 4, 3, 3, 2, 1)
	x := RandNormal(rng, 0, 1, 3*6*6)
	y := RandNormal(rng, 0, 1, g.ColRows*g.ColsN)
	colX := make([]float64, g.ColRows*g.ColsN)
	g.Im2Col(x.Data(), colX)
	lhs := 0.0
	for i := range colX {
		lhs += colX[i] * y.Data()[i]
	}
	back := make([]float64, 3*6*6)
	g.Col2Im(y.Data(), back)
	rhs := 0.0
	for i := range back {
		rhs += back[i] * x.Data()[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("Im2Col/Col2Im are not adjoint: %v vs %v", lhs, rhs)
	}
	// Im2Row is Im2Col transposed, element for element.
	rowsX := make([]float64, g.ColRows*g.ColsN)
	g.Im2Row(x.Data(), rowsX)
	for r := 0; r < g.ColRows; r++ {
		for p := 0; p < g.ColsN; p++ {
			if rowsX[p*g.ColRows+r] != colX[r*g.ColsN+p] {
				t.Fatalf("Im2Row(%d,%d) = %v, Im2Col(%d,%d) = %v", p, r, rowsX[p*g.ColRows+r], r, p, colX[r*g.ColsN+p])
			}
		}
	}
}

// refConv2DBackward is the arithmetic Conv2DBackward promises, written as
// plain loops: per image, the weight gradient adds gradOut x patch products in
// ascending output position from zero and the column gradient adds weight x
// gradOut products in ascending output channel from zero, scattered back in
// Col2Im's order; the per-image weight gradients and per-image bias sums are
// then folded in batch order.
func refConv2DBackward(input, weight, gradOut *Tensor, stride, pad int) (gi, gw, gb *Tensor) {
	n, inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outC, kH, kW := weight.Dim(0), weight.Dim(2), weight.Dim(3)
	g := NewConvGeom(inC, inH, inW, outC, kH, kW, stride, pad)
	gi, gw, gb = New(input.Shape()...), New(weight.Shape()...), New(outC)
	imgLen, outLen := inC*inH*inW, outC*g.ColsN
	col := make([]float64, g.ColRows*g.ColsN)
	dcol := make([]float64, g.ColRows*g.ColsN)
	for b := 0; b < n; b++ {
		gOut := gradOut.data[b*outLen : (b+1)*outLen]
		g.Im2Col(input.data[b*imgLen:(b+1)*imgLen], col)
		for o := 0; o < outC; o++ {
			for r := 0; r < g.ColRows; r++ {
				dw := 0.0
				for p := 0; p < g.ColsN; p++ {
					dw += gOut[o*g.ColsN+p] * col[r*g.ColsN+p]
				}
				gw.data[o*g.ColRows+r] += dw
			}
			s := 0.0
			for p := 0; p < g.ColsN; p++ {
				s += gOut[o*g.ColsN+p]
			}
			gb.data[o] += s
		}
		for r := 0; r < g.ColRows; r++ {
			for p := 0; p < g.ColsN; p++ {
				s := 0.0
				for o := 0; o < outC; o++ {
					s += weight.data[o*g.ColRows+r] * gOut[o*g.ColsN+p]
				}
				dcol[r*g.ColsN+p] = s
			}
		}
		g.Col2Im(dcol, gi.data[b*imgLen:(b+1)*imgLen])
	}
	return gi, gw, gb
}

// TestConv2DBackwardBitIdenticalToReference pins all three gradients to the
// reference above bit for bit, on both micro-kernel paths and at one, two and
// five workers: the transposed patch matrix and the vector tile change how
// the weight gradient is laid out and computed, not one bit of it.
func TestConv2DBackwardBitIdenticalToReference(t *testing.T) {
	cases := []struct{ inC, h, w, outC, k, stride, pad int }{
		{3, 9, 9, 8, 3, 1, 1},
		{3, 9, 9, 5, 3, 2, 1},
		{4, 8, 8, 8, 3, 1, 0},
		{2, 7, 9, 4, 3, 2, 0},
		{8, 6, 6, 12, 1, 1, 0},
		{8, 6, 6, 4, 1, 2, 0},
		{3, 5, 5, 4, 1, 1, 1},
	}
	rng := NewRNG(31)
	for _, c := range cases {
		for _, n := range []int{1, 8} {
			input := RandNormal(rng, 0, 1, n, c.inC, c.h, c.w)
			weight := RandNormal(rng, 0, 0.5, c.outC, c.inC, c.k, c.k)
			gradOut := RandNormal(rng, 0, 1, Conv2D(input, weight, nil, c.stride, c.pad).Shape()...)
			wantGI, wantGW, wantGB := refConv2DBackward(input, weight, gradOut, c.stride, c.pad)
			for _, vec := range kernelPaths() {
				for _, workers := range []int{1, 2, 5} {
					var gi, gw, gb *Tensor
					prev := parallel.SetWorkers(workers)
					onKernelPath(vec, func() { gi, gw, gb = Conv2DBackward(input, weight, true, gradOut, c.stride, c.pad) })
					parallel.SetWorkers(prev)
					for name, pair := range map[string][2]*Tensor{"dX": {gi, wantGI}, "dW": {gw, wantGW}, "db": {gb, wantGB}} {
						for i, v := range pair[0].data {
							if math.Float64bits(v) != math.Float64bits(pair[1].data[i]) {
								t.Fatalf("%+v batch %d, %s path, %d workers: %s[%d] = %v, want %v",
									c, n, pathName(vec), workers, name, i, v, pair[1].data[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestConv2DBackwardRejectsWrongShapes: a gradient or weight of the wrong
// shape must be refused by name before any kernel runs — the vector kernel
// has no bounds checks to stumble over, and a gradient that is too large
// would otherwise be read as if it were the right one.
func TestConv2DBackwardRejectsWrongShapes(t *testing.T) {
	input := New(2, 3, 6, 6)
	weight := New(4, 3, 3, 3)
	for name, bad := range map[string]func(){
		"gradOut rank":          func() { Conv2DBackward(input, weight, false, New(2, 4*6*6), 1, 1) },
		"gradOut spatial small": func() { Conv2DBackward(input, weight, false, New(2, 4, 5, 6), 1, 1) },
		"gradOut spatial large": func() { Conv2DBackward(input, weight, false, New(2, 4, 7, 7), 1, 1) },
		"gradOut channels":      func() { Conv2DBackward(input, weight, false, New(2, 5, 6, 6), 1, 1) },
		"gradOut batch":         func() { Conv2DBackward(input, weight, false, New(3, 4, 6, 6), 1, 1) },
		"weight channels":       func() { Conv2DBackward(input, New(4, 2, 3, 3), false, New(2, 4, 6, 6), 1, 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, ErrShapeMismatch.Error()) {
					t.Errorf("%s: panic %q, want one naming %q", name, msg, ErrShapeMismatch)
				}
			}()
			bad()
		}()
	}
}

func TestMaxPool2DKnown(t *testing.T) {
	input := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2D(input, 2, 2)
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("MaxPool2D[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
	// Gradient routing: each upstream grad lands exactly on the argmax cell.
	gradOut := Ones(1, 1, 2, 2)
	gradIn := MaxPool2DBackward(input.Shape(), arg, gradOut)
	if gradIn.Sum() != 4 {
		t.Fatalf("pool backward should conserve gradient mass, got %v", gradIn.Sum())
	}
	if gradIn.At(0, 0, 1, 1) != 1 || gradIn.At(0, 0, 3, 3) != 1 {
		t.Fatalf("pool backward routed gradient to wrong cells: %v", gradIn)
	}
}

func TestMaxPool2DMultiChannelBatch(t *testing.T) {
	rng := NewRNG(31)
	input := RandNormal(rng, 0, 1, 2, 3, 8, 8)
	out, arg := MaxPool2D(input, 2, 2)
	if out.Dim(2) != 4 || out.Dim(3) != 4 {
		t.Fatalf("pooled shape wrong: %v", out.Shape())
	}
	if len(arg) != out.Size() {
		t.Fatalf("argmax length %d != output size %d", len(arg), out.Size())
	}
	// Every pooled value must be >= the mean of its window (it is the max).
	for i, v := range out.Data() {
		imgIdx := i / (3 * 4 * 4)
		src := input.Data()[imgIdx*3*8*8+arg[i]]
		if v != src {
			t.Fatalf("pooled value %v does not equal argmax source %v", v, src)
		}
	}
}

func TestGlobalAvgPoolForwardBackward(t *testing.T) {
	input := FromSlice([]float64{
		1, 2, 3, 4, // channel 0
		10, 10, 10, 10, // channel 1
	}, 1, 2, 2, 2)
	out := GlobalAvgPool2D(input)
	if out.At(0, 0) != 2.5 || out.At(0, 1) != 10 {
		t.Fatalf("GlobalAvgPool2D wrong: %v", out)
	}
	grad := FromSlice([]float64{4, 8}, 1, 2)
	gin := GlobalAvgPool2DBackward(input.Shape(), grad)
	if gin.At(0, 0, 0, 0) != 1 || gin.At(0, 1, 1, 1) != 2 {
		t.Fatalf("GlobalAvgPool2DBackward wrong: %v", gin)
	}
}

// Property: convolution is linear in the input.
func TestConvLinearityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed))
		input1 := RandNormal(rng, 0, 1, 1, 2, 5, 5)
		input2 := RandNormal(rng, 0, 1, 1, 2, 5, 5)
		weight := RandNormal(rng, 0, 1, 3, 2, 3, 3)
		a := Conv2D(Add(input1, input2), weight, nil, 1, 1)
		b := Add(Conv2D(input1, weight, nil, 1, 1), Conv2D(input2, weight, nil, 1, 1))
		return AllClose(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: max pooling commutes with adding a constant.
func TestMaxPoolShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint16, shiftRaw int8) bool {
		rng := NewRNG(uint64(seed))
		shift := float64(shiftRaw)
		input := RandNormal(rng, 0, 1, 1, 1, 6, 6)
		shifted := input.Map(func(v float64) float64 { return v + shift })
		a, _ := MaxPool2D(input, 2, 2)
		b, _ := MaxPool2D(shifted, 2, 2)
		return AllClose(b, a.Map(func(v float64) float64 { return v + shift }), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
