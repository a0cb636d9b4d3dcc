package nn

import (
	"math"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// Sigmoid applies the logistic function element-wise.
type Sigmoid struct {
	name string
	out  *tensor.Tensor
}

// NewSigmoid creates a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return s.name }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	s.out = x.Map(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	return s.out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if s.out == nil {
		panic("nn: Sigmoid.Backward called before Forward")
	}
	gradIn := gradOut.Clone()
	o := s.out.Data()
	g := gradIn.Data()
	for i := range g {
		g[i] *= o[i] * (1 - o[i])
	}
	return gradIn
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// OutputShape implements Layer.
func (s *Sigmoid) OutputShape(in []int) []int { return append([]int(nil), in...) }

// Stats implements StatsProvider.
func (s *Sigmoid) Stats(in []int) Stats {
	n := prod(in)
	return Stats{ActivationElems: n, OutputElems: n, ForwardFLOPs: 4 * n, BackwardFLOPs: 3 * n}
}

// Tanh applies the hyperbolic tangent element-wise.
type Tanh struct {
	name string
	out  *tensor.Tensor
}

// NewTanh creates a tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.name }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	t.out = x.Map(math.Tanh)
	return t.out
}

// Backward implements Layer.
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if t.out == nil {
		panic("nn: Tanh.Backward called before Forward")
	}
	gradIn := gradOut.Clone()
	o := t.out.Data()
	g := gradIn.Data()
	for i := range g {
		g[i] *= 1 - o[i]*o[i]
	}
	return gradIn
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// OutputShape implements Layer.
func (t *Tanh) OutputShape(in []int) []int { return append([]int(nil), in...) }

// Stats implements StatsProvider.
func (t *Tanh) Stats(in []int) Stats {
	n := prod(in)
	return Stats{ActivationElems: n, OutputElems: n, ForwardFLOPs: 6 * n, BackwardFLOPs: 3 * n}
}

// LeakyReLU applies max(alpha*x, x) element-wise.
type LeakyReLU struct {
	name  string
	Alpha float64
	mask  []bool
}

// NewLeakyReLU creates a leaky ReLU with the given negative slope (0.01 if
// alpha is zero).
func NewLeakyReLU(name string, alpha float64) *LeakyReLU {
	if alpha == 0 {
		alpha = 0.01
	}
	return &LeakyReLU{name: name, Alpha: alpha}
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return l.name }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := x.Clone()
	if cap(l.mask) < x.Size() {
		l.mask = make([]bool, x.Size())
	}
	l.mask = l.mask[:x.Size()]
	d := out.Data()
	for i, v := range d {
		if v > 0 {
			l.mask[i] = true
		} else {
			l.mask[i] = false
			d[i] = l.Alpha * v
		}
	}
	return out
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(l.mask) != gradOut.Size() {
		panic("nn: LeakyReLU.Backward called before Forward")
	}
	gradIn := gradOut.Clone()
	g := gradIn.Data()
	for i := range g {
		if !l.mask[i] {
			g[i] *= l.Alpha
		}
	}
	return gradIn
}

// Params implements Layer.
func (l *LeakyReLU) Params() []*Param { return nil }

// OutputShape implements Layer.
func (l *LeakyReLU) OutputShape(in []int) []int { return append([]int(nil), in...) }

// Stats implements StatsProvider.
func (l *LeakyReLU) Stats(in []int) Stats {
	n := prod(in)
	return Stats{ActivationElems: n, OutputElems: n, ForwardFLOPs: n, BackwardFLOPs: n}
}
