// Package tensor implements a small dense tensor library used by the
// neural-network and checkpointing substrates of the Training-on-the-Edge
// reproduction.
//
// Tensors are row-major, dense, float64 backed. The hot kernels (GEMM in
// matmul.go, convolution and pooling in conv.go) are cache-blocked,
// parallelized over disjoint output ranges via internal/parallel, and draw
// their scratch workspaces from a sync.Pool arena (pool.go), so steady-state
// training performs no per-call heap allocation inside the kernels. All
// kernels are bit-identical at any worker count: parallel chunk boundaries
// depend only on the problem shape, and every reduction folds per-chunk
// partials in fixed chunk order.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// Tensor is a dense, row-major multi-dimensional array of float64 values.
// The zero value is an empty tensor with no dimensions.
type Tensor struct {
	shape  []int
	stride []int
	data   []float64
}

// ErrShapeMismatch is returned when two tensors that must agree in shape do not.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

// New creates a tensor of the given shape filled with zeros.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	t.stride = computeStrides(t.shape)
	return t
}

// FromSlice creates a tensor with the given shape that adopts data as its
// backing store. The length of data must equal the product of the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  data,
	}
	t.stride = computeStrides(t.shape)
	return t
}

// Full creates a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones creates a tensor of the given shape filled with ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Eye creates an n-by-n identity matrix.
func Eye(n int) *Tensor {
	t := New(n, n)
	for i := 0; i < n; i++ {
		t.data[i*n+i] = 1
	}
	return t
}

// Arange creates a 1-D tensor holding 0, 1, ..., n-1.
func Arange(n int) *Tensor {
	t := New(n)
	for i := 0; i < n; i++ {
		t.data[i] = float64(i)
	}
	return t
}

func computeStrides(shape []int) []int {
	stride := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		stride[i] = s
		s *= shape[i]
	}
	return stride
}

// Shape returns a copy of the tensor's shape. The copy allocates; code on a
// hot path should prefer Dim and Rank, or NewLike/EnsureLike when the shape
// is only needed to size another tensor.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// NewLike returns a zeroed tensor with the same shape as t, without copying
// the shape slice out through Shape.
func (t *Tensor) NewLike() *Tensor { return New(t.shape...) }

// AppendShape appends t's shape to dst[:0] and returns the result. It is
// the non-copying alternative to Shape for callers that keep a reusable
// shape buffer (layer caches recording their input shape every forward).
func (t *Tensor) AppendShape(dst []int) []int { return append(dst[:0], t.shape...) }

// EnsureLike returns buf if it is non-nil and has the same shape as like,
// and a fresh zeroed tensor of like's shape otherwise. It lets layers keep
// a reusable cache buffer whose contents they fully overwrite each call;
// a recycled buffer is returned as-is (stale values included).
func EnsureLike(buf, like *Tensor) *Tensor {
	if buf != nil && buf.SameShape(like) {
		return buf
	}
	return like.NewLike()
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Bytes returns the number of bytes the element data occupies (8 bytes per
// element for float64 storage). It is used by memory-accounting code.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 8 }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Reshape returns a view-copy of t with the new shape; the total number of
// elements must be unchanged. A dimension of -1 is inferred from the rest.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer != -1 {
				panic("tensor: only one dimension may be -1 in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for reshape of %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n *= shape[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v (size %d)", t.shape, len(t.data), shape, n))
	}
	out := &Tensor{shape: shape, data: t.data, stride: computeStrides(shape)}
	return out
}

// index converts multi-dimensional indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: got %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d (size %d)", x, i, t.shape[i]))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx...)] }

// Set assigns v to the element at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() { t.Fill(0) }

// Apply applies f element-wise in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor with f applied element-wise.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	out := t.Clone()
	return out.Apply(f)
}

// elemGrain is the number of elements a parallel chunk of an element-wise
// kernel carries; smaller tensors run serially.
const elemGrain = 8192

// AddInPlace adds o to t element-wise. Shapes must match. It is the residual
// sum of every block and the fold of every layer's weight gradient, so large
// tensors are added in parallel; every element is one sum, whoever adds it.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	mustSameShape(t, o)
	parallel.For(len(t.data), elemGrain, func(lo, hi int) {
		dst, src := t.data[lo:hi], o.data[lo:hi]
		for i, v := range src {
			dst[i] += v
		}
	})
	return t
}

// SubInPlace subtracts o from t element-wise.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	mustSameShape(t, o)
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
	return t
}

// MulInPlace multiplies t by o element-wise.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	mustSameShape(t, o)
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
	return t
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AxpyInPlace computes t += alpha*o element-wise.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) *Tensor {
	mustSameShape(t, o)
	for i := range t.data {
		t.data[i] += alpha * o.data[i]
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Mul returns the element-wise product as a new tensor.
func Mul(t, o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

// Scale returns s*t as a new tensor.
func Scale(s float64, t *Tensor) *Tensor { return t.Clone().ScaleInPlace(s) }

func mustSameShape(a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("%v: %v vs %v", ErrShapeMismatch, a.shape, b.shape))
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty tensor).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element and its flat index. It panics on empty tensors.
func (t *Tensor) Max() (float64, int) {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, arg := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Min returns the minimum element and its flat index. It panics on empty tensors.
func (t *Tensor) Min() (float64, int) {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	best, arg := t.data[0], 0
	for i, v := range t.data {
		if v < best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Norm returns the Euclidean (L2) norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(t, o *Tensor) float64 {
	mustSameShape(t, o)
	s := 0.0
	for i := range t.data {
		s += t.data[i] * o.data[i]
	}
	return s
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires a rank-2 tensor, got rank %d", a.Rank()))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	transposeInto(out.data, a.data, m, n)
	return out
}

// transposeInto writes the (n, m) transpose of the row-major (m, n) matrix
// src into dst, one row of dst (one column of src) at a time.
func transposeInto(dst, src []float64, m, n int) {
	for j := 0; j < n; j++ {
		row := dst[j*m : (j+1)*m]
		for i := range row {
			row[i] = src[i*n+j]
		}
	}
}

// ArgmaxRows returns, for a rank-2 tensor, the column index of the maximum of
// each row. It is used for classification predictions.
func ArgmaxRows(a *Tensor) []int {
	if a.Rank() != 2 {
		panic("tensor: ArgmaxRows requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		best := a.data[i*n]
		arg := 0
		for j := 1; j < n; j++ {
			if v := a.data[i*n+j]; v > best {
				best, arg = v, j
			}
		}
		out[i] = arg
	}
	return out
}

// AllClose reports whether every element of a and b differs by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between a and b.
func MaxAbsDiff(a, b *Tensor) float64 {
	mustSameShape(a, b)
	m := 0.0
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > m {
			m = d
		}
	}
	return m
}

// String renders small tensors fully and large tensors by shape summary.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor(shape=%v, size=%d)", t.shape, len(t.data))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor(shape=%v, data=[", t.shape)
	for i, v := range t.data {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteString("])")
	return b.String()
}
