// Package nn implements the neural-network layers used by the
// Training-on-the-Edge reproduction: convolutions, batch normalisation,
// ReLU, pooling, linear layers and residual blocks, each with a true
// forward and backward pass and per-layer parameter/activation accounting.
//
// The layers run on the parallel, allocation-free kernel engine in
// internal/tensor: GEMMs are cache-blocked and transpose-free, convolutions
// draw pooled im2col scratch, and per-channel/per-sample reductions are
// parallelized via internal/parallel with bit-identical results at any
// worker count. Layers retain a *reference* to their forward input until
// Backward runs (the borrow contract below), so the hot training loop pays
// no defensive copies.
package nn

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// Param is a trainable parameter: a value tensor and its accumulated
// gradient. Optimisers in internal/trainer attach per-parameter state
// (momentum, Adam moments) keyed by the Param pointer.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Count returns the number of scalar values in the parameter.
func (p *Param) Count() int { return p.Value.Size() }

// Layer is a differentiable module. Forward stores whatever it needs to run
// Backward; calling Forward again overwrites that cache, which is exactly the
// behaviour the checkpointed executor relies on when it recomputes a segment.
//
// Borrow contract: a layer may retain a reference to its Forward input (not
// a copy) until the matching Backward call, and callers must not mutate the
// input in that window. Conversely, every layer returns a freshly allocated
// output tensor from Forward — never an internal buffer — so the
// checkpointed executor can snapshot stage outputs by reference and replay
// forwards without corrupting retained states. A layer may keep a reference
// to that output too (ReLU's backward reads it), so callers must not mutate
// an output before the matching Backward either. Layers never mutate their
// inputs or upstream gradients.
//
// Accumulation contract: Backward adds each parameter's whole-call gradient
// contribution to Param.Grad with a single element-wise addition (computing
// into a scratch first if the kernel reduces per sample), never one addition
// per sample. Accumulating k batches without ZeroGrads therefore associates
// exactly like folding the k per-batch gradients in call order — the
// property that makes the fleet package's synchronous gradient all-reduce
// bit-identical to single-node gradient accumulation over the same batches.
type Layer interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward computes the layer output for input x. When train is false the
	// layer runs in inference mode (e.g. batch norm uses running statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient with respect to the layer output and
	// returns the gradient with respect to the layer input, accumulating
	// parameter gradients as a side effect. It must be called after Forward.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
	// OutputShape maps an input shape to the layer's output shape without
	// running the layer; it is used for memory accounting and model assembly.
	OutputShape(in []int) []int
}

// Stats describes the static cost of a layer for a given input shape. It is
// the bridge between live layers and the analytical memory model.
type Stats struct {
	ParamCount       int   // trainable scalars
	ActivationElems  int64 // elements the layer must retain for backward (per forward call)
	OutputElems      int64 // elements in the layer output
	ForwardFLOPs     int64 // approximate multiply-accumulate count for one forward pass
	BackwardFLOPs    int64 // approximate cost of the backward pass
	ParamBytesFP32   int64 // 4 bytes per parameter
	ActBytesFP32     int64 // 4 bytes per retained activation element
	OutputBytesFP32  int64
	ParamStateCopies int // value+grad+optimiser moments, filled in by callers
}

// StatsProvider is implemented by layers that can report their static costs.
type StatsProvider interface {
	Stats(in []int) Stats
}

func prod(shape []int) int64 {
	p := int64(1)
	for _, d := range shape {
		p *= int64(d)
	}
	return p
}

// ZeroGrads clears the gradients of all parameters of all layers.
func ZeroGrads(layers []Layer) {
	for _, l := range layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// NamedState is one non-trainable state tensor of a layer, under a
// model-unique name derived from the layer name.
type NamedState struct {
	Name   string
	Tensor *tensor.Tensor
}

// Stateful is implemented by layers (and containers of layers) that carry
// non-trainable state which must survive checkpoint and resume — batch-norm
// running statistics. StateTensors returns live references, so callers can
// both read the state (checkpoint) and copy into it (resume).
type Stateful interface {
	StateTensors() []NamedState
}

// CollectState gathers the non-trainable state of all layers in layer order,
// recursing into containers. Layers without durable state contribute
// nothing.
func CollectState(layers []Layer) []NamedState {
	var out []NamedState
	for _, l := range layers {
		if s, ok := l.(Stateful); ok {
			out = append(out, s.StateTensors()...)
		}
	}
	return out
}

// Sequential is an ordered chain of layers, itself usable as a Layer.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for _, l := range s.Layers {
		out = l.Forward(out, train)
	}
	return out
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g = s.Layers[i].Backward(g)
	}
	return g
}

// Params returns the concatenation of all layers' parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// StateTensors implements Stateful by recursing into the layers.
func (s *Sequential) StateTensors() []NamedState { return CollectState(s.Layers) }

// OutputShape threads the input shape through every layer.
func (s *Sequential) OutputShape(in []int) []int {
	shape := in
	for _, l := range s.Layers {
		shape = l.OutputShape(shape)
	}
	return shape
}

// Stats aggregates the stats of all contained layers.
func (s *Sequential) Stats(in []int) Stats {
	var total Stats
	shape := in
	for _, l := range s.Layers {
		if sp, ok := l.(StatsProvider); ok {
			st := sp.Stats(shape)
			total.ParamCount += st.ParamCount
			total.ActivationElems += st.ActivationElems
			total.ForwardFLOPs += st.ForwardFLOPs
			total.BackwardFLOPs += st.BackwardFLOPs
		}
		shape = l.OutputShape(shape)
	}
	total.OutputElems = prod(shape)
	total.ParamBytesFP32 = int64(total.ParamCount) * 4
	total.ActBytesFP32 = total.ActivationElems * 4
	total.OutputBytesFP32 = total.OutputElems * 4
	return total
}

// Len returns the number of layers in the container.
func (s *Sequential) Len() int { return len(s.Layers) }

// At returns the i-th layer.
func (s *Sequential) At(i int) Layer { return s.Layers[i] }

func mustRank(x *tensor.Tensor, rank int, who string) {
	if x.Rank() != rank {
		panic(fmt.Sprintf("nn: %s expects a rank-%d input, got rank %d (shape %v)", who, rank, x.Rank(), x.Shape()))
	}
}
