package nn

import (
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

func TestSigmoidForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(1)
	s := NewSigmoid("sig")
	x := tensor.RandNormal(rng, 0, 2, 3, 4)
	out := s.Forward(x, true)
	lo, _ := out.Min()
	hi, _ := out.Max()
	if lo <= 0 || hi >= 1 {
		t.Fatalf("sigmoid output outside (0,1): [%v, %v]", lo, hi)
	}
	if math.Abs(s.Forward(tensor.New(1, 1), true).At(0, 0)-0.5) > 1e-12 {
		t.Fatal("sigmoid(0) should be 0.5")
	}
	checkLayerGradients(t, NewSigmoid("sig2"), tensor.RandNormal(rng, 0, 1, 2, 5), rng, 10, 1e-4)
}

func TestTanhForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(2)
	th := NewTanh("tanh")
	if math.Abs(th.Forward(tensor.New(1, 1), true).At(0, 0)) > 1e-12 {
		t.Fatal("tanh(0) should be 0")
	}
	checkLayerGradients(t, NewTanh("tanh2"), tensor.RandNormal(rng, 0, 1, 2, 6), rng, 10, 1e-4)
}

func TestLeakyReLUForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLeakyReLU("lrelu", 0.1)
	x := tensor.FromSlice([]float64{-2, 0, 3}, 1, 3)
	out := l.Forward(x, true)
	if math.Abs(out.At(0, 0)+0.2) > 1e-12 || out.At(0, 2) != 3 {
		t.Fatalf("leaky relu forward wrong: %v", out)
	}
	if NewLeakyReLU("d", 0).Alpha != 0.01 {
		t.Fatal("default alpha not applied")
	}
	checkLayerGradients(t, NewLeakyReLU("lrelu2", 0.2), tensor.RandNormal(rng, 0, 1, 2, 7), rng, 10, 1e-4)
}

func TestActivationStatsAndShapes(t *testing.T) {
	in := []int{2, 8}
	for _, l := range []Layer{NewSigmoid("s"), NewTanh("t"), NewLeakyReLU("l", 0.1)} {
		shape := l.OutputShape(in)
		if shape[0] != 2 || shape[1] != 8 {
			t.Fatalf("%s OutputShape wrong: %v", l.Name(), shape)
		}
		if l.Params() != nil {
			t.Fatalf("%s should have no parameters", l.Name())
		}
		if sp, ok := l.(StatsProvider); ok {
			st := sp.Stats(in)
			if st.OutputElems != 16 {
				t.Fatalf("%s stats wrong: %+v", l.Name(), st)
			}
		} else {
			t.Fatalf("%s should implement StatsProvider", l.Name())
		}
	}
}
