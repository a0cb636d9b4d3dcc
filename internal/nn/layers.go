package nn

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// elemGrain is the minimum number of scalar operations a parallel chunk of
// an element-wise kernel should carry; smaller tensors run serially.
const elemGrain = 8192

// ReLU applies max(0, x) element-wise: it keeps x where x > 0 and writes +0
// everywhere else, NaN and −0 included.
type ReLU struct {
	name string
	out  *tensor.Tensor // the last forward's output; Backward passes g where out > 0
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Forward implements Layer. The layer keeps a reference to its output, not a
// mask: out > 0 exactly where x > 0, and the next layer holds that tensor
// anyway.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := x.NewLike()
	src, d := x.Data(), out.Data()
	parallel.For(len(d), elemGrain, func(lo, hi int) { reluInto(d[lo:hi], src[lo:hi]) })
	r.out = out
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.out == nil || r.out.Size() != gradOut.Size() {
		panic("nn: ReLU.Backward called before Forward or with mismatched size")
	}
	gradIn := gradOut.NewLike()
	g, o, d := gradOut.Data(), r.out.Data(), gradIn.Data()
	parallel.For(len(d), elemGrain, func(lo, hi int) {
		g, o, d := g[lo:hi], o[lo:hi], d[lo:hi]
		o = o[:len(d)]
		for i := range g[:len(d)] {
			d[i] = math.Float64frombits(math.Float64bits(g[i]) & positive(o[i]))
		}
	})
	r.Release()
	return gradIn
}

// Release implements Releaser.
func (r *ReLU) Release() { r.out = nil }

// reluInto writes ReLU(src) to dst, which may be src itself, without a
// branch on the data.
func reluInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
	}
}

// positive is all ones where v > 0 and zero elsewhere (NaN and ±0 included):
// v > 0 exactly when its bits, less one, fall below those of +Inf, and the
// borrow of that subtraction is the answer.
func positive(v float64) uint64 {
	_, borrow := bits.Sub64(math.Float64bits(v)-1, 0x7ff0000000000000, 0)
	return -borrow
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutputShape implements Layer.
func (r *ReLU) OutputShape(in []int) []int { return append([]int(nil), in...) }

// Stats implements StatsProvider.
func (r *ReLU) Stats(in []int) Stats {
	n := prod(in)
	return Stats{ActivationElems: n, OutputElems: n, ForwardFLOPs: n, BackwardFLOPs: n}
}

// Flatten reshapes (N, ...) into (N, rest).
type Flatten struct {
	name    string
	inShape []int
}

// NewFlatten creates a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.inShape = x.AppendShape(f.inShape)
	n := x.Dim(0)
	return x.Clone().Reshape(n, -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Clone().Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutputShape implements Layer.
func (f *Flatten) OutputShape(in []int) []int {
	rest := 1
	for _, d := range in[1:] {
		rest *= d
	}
	return []int{in[0], rest}
}

// Stats implements StatsProvider.
func (f *Flatten) Stats(in []int) Stats {
	n := prod(in)
	return Stats{OutputElems: n}
}

// Linear is a fully connected layer: y = x W^T + b with x of shape (N, in).
type Linear struct {
	name    string
	In, Out int
	W, B    *Param
	hasBias bool
	lastIn  *tensor.Tensor
	dwBuf   *tensor.Tensor // reusable weight-gradient workspace
	dbBuf   []float64      // reusable bias-gradient workspace
}

// NewLinear creates a fully connected layer with Kaiming-initialised weights.
func NewLinear(name string, in, out int, bias bool, rng *tensor.RNG) *Linear {
	l := &Linear{name: name, In: in, Out: out, hasBias: bias}
	l.W = NewParam(name+".weight", tensor.KaimingLinear(rng, out, in))
	if bias {
		l.B = NewParam(name+".bias", tensor.New(out))
	}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank(x, 2, "Linear")
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear %s expects %d features, got %d", l.name, l.In, x.Dim(1)))
	}
	l.lastIn = x
	out := tensor.MatMulNT(x, l.W.Value) // (N, out), transpose-free
	if l.hasBias {
		n := out.Dim(0)
		od, bd := out.Data(), l.B.Value.Data()
		for i := 0; i < n; i++ {
			row := od[i*l.Out : (i+1)*l.Out]
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastIn == nil {
		panic("nn: Linear.Backward called before Forward")
	}
	// dW += gradOut^T x ; dB += column sums of gradOut ; dX = gradOut W
	l.dwBuf = tensor.EnsureLike(l.dwBuf, l.W.Value)
	tensor.MatMulTNInto(l.dwBuf, gradOut, l.lastIn)
	l.Release()
	l.W.Grad.AddInPlace(l.dwBuf)
	if l.hasBias {
		// Column sums land in a scratch first so the whole-batch contribution
		// reaches B.Grad as a single element-wise addition (the accumulation
		// contract on Layer), not one addition per sample.
		n := gradOut.Dim(0)
		if cap(l.dbBuf) < l.Out {
			l.dbBuf = make([]float64, l.Out)
		}
		db := l.dbBuf[:l.Out]
		for j := range db {
			db[j] = 0
		}
		gd, bg := gradOut.Data(), l.B.Grad.Data()
		for i := 0; i < n; i++ {
			row := gd[i*l.Out : (i+1)*l.Out]
			for j := range row {
				db[j] += row[j]
			}
		}
		for j := range db {
			bg[j] += db[j]
		}
	}
	return tensor.MatMul(gradOut, l.W.Value)
}

// Release implements Releaser.
func (l *Linear) Release() { l.lastIn = nil }

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.hasBias {
		return []*Param{l.W, l.B}
	}
	return []*Param{l.W}
}

// OutputShape implements Layer.
func (l *Linear) OutputShape(in []int) []int { return []int{in[0], l.Out} }

// Stats implements StatsProvider.
func (l *Linear) Stats(in []int) Stats {
	n := int64(in[0])
	params := l.In * l.Out
	if l.hasBias {
		params += l.Out
	}
	return Stats{
		ParamCount:      params,
		ActivationElems: n * int64(l.In),
		OutputElems:     n * int64(l.Out),
		ForwardFLOPs:    2 * n * int64(l.In) * int64(l.Out),
		BackwardFLOPs:   4 * n * int64(l.In) * int64(l.Out),
	}
}

// SoftmaxCrossEntropy is a fused softmax + cross-entropy loss over class
// logits. It is not a Layer (its forward takes labels); the trainer uses it
// as the loss head.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Tensor
	labels []int
}

// NewSoftmaxCrossEntropy creates the loss head.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward computes the mean cross-entropy loss of logits (N, C) against the
// integer labels and caches the softmax probabilities for Backward.
func (s *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	mustRank(logits, 2, "SoftmaxCrossEntropy")
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), n))
	}
	s.probs = tensor.New(n, c)
	s.labels = append([]int(nil), labels...)
	loss := 0.0
	for i := 0; i < n; i++ {
		// Numerically stable softmax.
		maxV := logits.At(i, 0)
		for j := 1; j < c; j++ {
			if v := logits.At(i, j); v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j := 0; j < c; j++ {
			e := math.Exp(logits.At(i, j) - maxV)
			s.probs.Set(e, i, j)
			sum += e
		}
		for j := 0; j < c; j++ {
			s.probs.Set(s.probs.At(i, j)/sum, i, j)
		}
		p := s.probs.At(i, labels[i])
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	return loss / float64(n)
}

// Backward returns dLoss/dLogits for the last Forward call.
func (s *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if s.probs == nil {
		panic("nn: SoftmaxCrossEntropy.Backward called before Forward")
	}
	n, c := s.probs.Dim(0), s.probs.Dim(1)
	grad := s.probs.Clone()
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		grad.Set(grad.At(i, s.labels[i])-1, i, s.labels[i])
		for j := 0; j < c; j++ {
			grad.Set(grad.At(i, j)*inv, i, j)
		}
	}
	return grad
}

// Probabilities returns the cached softmax probabilities from the last Forward.
func (s *SoftmaxCrossEntropy) Probabilities() *tensor.Tensor { return s.probs }

// Accuracy computes the fraction of rows of logits whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	preds := tensor.ArgmaxRows(logits)
	if len(preds) == 0 {
		return 0
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds))
}
