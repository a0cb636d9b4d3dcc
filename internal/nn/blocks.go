package nn

import (
	"github.com/edgeml/edgetrain/internal/tensor"
)

// BasicBlock is the two-convolution residual block used by ResNet-18/34:
//
//	out = ReLU( BN(conv3x3(BN(conv3x3(x)) relu)) + shortcut(x) )
//
// where shortcut is the identity, or a strided 1x1 convolution + BN when the
// spatial size or channel count changes.
type BasicBlock struct {
	name string

	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Relu1 *ReLU
	Conv2 *Conv2D
	BN2   *BatchNorm2D

	// Downsample path (nil for identity shortcuts).
	DownConv *Conv2D
	DownBN   *BatchNorm2D

	reluOut *ReLU // final activation
}

// NewBasicBlock builds a basic residual block mapping inC channels to outC
// channels with the given stride on the first convolution.
func NewBasicBlock(name string, inC, outC, stride int, rng *tensor.RNG) *BasicBlock {
	b := &BasicBlock{name: name}
	b.Conv1 = NewConv2D(name+".conv1", inC, outC, 3, stride, 1, false, rng)
	b.BN1 = NewBatchNorm2D(name+".bn1", outC)
	b.Relu1 = NewReLU(name + ".relu1")
	b.Conv2 = NewConv2D(name+".conv2", outC, outC, 3, 1, 1, false, rng)
	b.BN2 = NewBatchNorm2D(name+".bn2", outC)
	b.reluOut = NewReLU(name + ".relu_out")
	if stride != 1 || inC != outC {
		b.DownConv = NewConv2D(name+".downsample.conv", inC, outC, 1, stride, 0, false, rng)
		b.DownBN = NewBatchNorm2D(name+".downsample.bn", outC)
	}
	return b
}

// Name implements Layer.
func (b *BasicBlock) Name() string { return b.name }

// Forward implements Layer.
func (b *BasicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := b.Conv1.Forward(x, train)
	out = b.BN1.forward(out, train, nil, b.Relu1)
	out = b.Conv2.Forward(out, train)
	// BN2, the residual sum and the final ReLU run as one pass over BN2's
	// fresh output.
	return b.BN2.forward(out, train, shortcut(x, b.DownConv, b.DownBN, train), b.reluOut)
}

// shortcut is a residual block's identity branch: x itself, or x through the
// downsampling convolution and its batch norm.
func shortcut(x *tensor.Tensor, conv *Conv2D, bn *BatchNorm2D, train bool) *tensor.Tensor {
	if conv == nil {
		return x
	}
	return bn.Forward(conv.Forward(x, train), train)
}

// Backward implements Layer.
func (b *BasicBlock) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := b.reluOut.Backward(gradOut)
	// The addition fans the gradient out to both the residual branch and the
	// shortcut branch. Neither branch mutates its upstream gradient, so both
	// can read g without a defensive copy.
	gMain := g
	gShortcut := g

	gMain = b.BN2.Backward(gMain)
	gMain = b.Conv2.Backward(gMain)
	gMain = b.Relu1.Backward(gMain)
	gMain = b.BN1.Backward(gMain)
	gMain = b.Conv1.Backward(gMain)

	if b.DownConv != nil {
		gShortcut = b.DownBN.Backward(gShortcut)
		gShortcut = b.DownConv.Backward(gShortcut)
	}
	// gMain is Conv1's freshly allocated input gradient; fold the shortcut
	// gradient into it in place.
	return gMain.AddInPlace(gShortcut)
}

// parts lists the block's layers in parameter and state order.
func (b *BasicBlock) parts() []Layer {
	ls := []Layer{b.Conv1, b.BN1, b.Relu1, b.Conv2, b.BN2, b.reluOut}
	if b.DownConv != nil {
		ls = append(ls, b.DownConv, b.DownBN)
	}
	return ls
}

// Params implements Layer.
func (b *BasicBlock) Params() []*Param { return paramsOf(b.parts()) }

// StateTensors implements Stateful: the block's batch-norm running
// statistics, in layer order.
func (b *BasicBlock) StateTensors() []NamedState { return CollectState(b.parts()) }

// Release implements Releaser.
func (b *BasicBlock) Release() { releaseAll(b.parts()) }

// OutputShape implements Layer.
func (b *BasicBlock) OutputShape(in []int) []int {
	s := b.Conv1.OutputShape(in)
	return b.Conv2.OutputShape(s)
}

// Stats implements StatsProvider.
func (b *BasicBlock) Stats(in []int) Stats {
	var total Stats
	add := func(st Stats) {
		total.ParamCount += st.ParamCount
		total.ActivationElems += st.ActivationElems
		total.ForwardFLOPs += st.ForwardFLOPs
		total.BackwardFLOPs += st.BackwardFLOPs
	}
	s1 := b.Conv1.OutputShape(in)
	add(b.Conv1.Stats(in))
	add(b.BN1.Stats(s1))
	add(b.Relu1.Stats(s1))
	s2 := b.Conv2.OutputShape(s1)
	add(b.Conv2.Stats(s1))
	add(b.BN2.Stats(s2))
	if b.DownConv != nil {
		ds := b.DownConv.OutputShape(in)
		add(b.DownConv.Stats(in))
		add(b.DownBN.Stats(ds))
	}
	add(b.reluOut.Stats(s2))
	total.OutputElems = prod(s2)
	total.ParamBytesFP32 = int64(total.ParamCount) * 4
	total.ActBytesFP32 = total.ActivationElems * 4
	total.OutputBytesFP32 = total.OutputElems * 4
	return total
}

// Bottleneck is the three-convolution residual block used by ResNet-50/101/152:
// a 1x1 reduction, a 3x3 convolution and a 1x1 expansion (by a factor of 4).
type Bottleneck struct {
	name string

	Conv1 *Conv2D // 1x1 reduce
	BN1   *BatchNorm2D
	Relu1 *ReLU
	Conv2 *Conv2D // 3x3
	BN2   *BatchNorm2D
	Relu2 *ReLU
	Conv3 *Conv2D // 1x1 expand
	BN3   *BatchNorm2D

	DownConv *Conv2D
	DownBN   *BatchNorm2D

	reluOut *ReLU
}

// BottleneckExpansion is the channel expansion factor of the final 1x1
// convolution in a bottleneck block (4 in the published ResNet family).
const BottleneckExpansion = 4

// NewBottleneck builds a bottleneck residual block. planes is the internal
// width; the block outputs planes*BottleneckExpansion channels.
func NewBottleneck(name string, inC, planes, stride int, rng *tensor.RNG) *Bottleneck {
	outC := planes * BottleneckExpansion
	b := &Bottleneck{name: name}
	b.Conv1 = NewConv2D(name+".conv1", inC, planes, 1, 1, 0, false, rng)
	b.BN1 = NewBatchNorm2D(name+".bn1", planes)
	b.Relu1 = NewReLU(name + ".relu1")
	b.Conv2 = NewConv2D(name+".conv2", planes, planes, 3, stride, 1, false, rng)
	b.BN2 = NewBatchNorm2D(name+".bn2", planes)
	b.Relu2 = NewReLU(name + ".relu2")
	b.Conv3 = NewConv2D(name+".conv3", planes, outC, 1, 1, 0, false, rng)
	b.BN3 = NewBatchNorm2D(name+".bn3", outC)
	b.reluOut = NewReLU(name + ".relu_out")
	if stride != 1 || inC != outC {
		b.DownConv = NewConv2D(name+".downsample.conv", inC, outC, 1, stride, 0, false, rng)
		b.DownBN = NewBatchNorm2D(name+".downsample.bn", outC)
	}
	return b
}

// Name implements Layer.
func (b *Bottleneck) Name() string { return b.name }

// Forward implements Layer.
func (b *Bottleneck) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := b.Conv1.Forward(x, train)
	out = b.BN1.forward(out, train, nil, b.Relu1)
	out = b.Conv2.Forward(out, train)
	out = b.BN2.forward(out, train, nil, b.Relu2)
	out = b.Conv3.Forward(out, train)
	return b.BN3.forward(out, train, shortcut(x, b.DownConv, b.DownBN, train), b.reluOut)
}

// Backward implements Layer.
func (b *Bottleneck) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := b.reluOut.Backward(gradOut)
	gMain := g
	gShortcut := g

	gMain = b.BN3.Backward(gMain)
	gMain = b.Conv3.Backward(gMain)
	gMain = b.Relu2.Backward(gMain)
	gMain = b.BN2.Backward(gMain)
	gMain = b.Conv2.Backward(gMain)
	gMain = b.Relu1.Backward(gMain)
	gMain = b.BN1.Backward(gMain)
	gMain = b.Conv1.Backward(gMain)

	if b.DownConv != nil {
		gShortcut = b.DownBN.Backward(gShortcut)
		gShortcut = b.DownConv.Backward(gShortcut)
	}
	return gMain.AddInPlace(gShortcut)
}

// parts lists the block's layers in parameter and state order.
func (b *Bottleneck) parts() []Layer {
	ls := []Layer{b.Conv1, b.BN1, b.Relu1, b.Conv2, b.BN2, b.Relu2, b.Conv3, b.BN3, b.reluOut}
	if b.DownConv != nil {
		ls = append(ls, b.DownConv, b.DownBN)
	}
	return ls
}

// Params implements Layer.
func (b *Bottleneck) Params() []*Param { return paramsOf(b.parts()) }

// StateTensors implements Stateful: the block's batch-norm running
// statistics, in layer order.
func (b *Bottleneck) StateTensors() []NamedState { return CollectState(b.parts()) }

// Release implements Releaser.
func (b *Bottleneck) Release() { releaseAll(b.parts()) }

// OutputShape implements Layer.
func (b *Bottleneck) OutputShape(in []int) []int {
	s := b.Conv1.OutputShape(in)
	s = b.Conv2.OutputShape(s)
	return b.Conv3.OutputShape(s)
}

// Stats implements StatsProvider.
func (b *Bottleneck) Stats(in []int) Stats {
	var total Stats
	add := func(st Stats) {
		total.ParamCount += st.ParamCount
		total.ActivationElems += st.ActivationElems
		total.ForwardFLOPs += st.ForwardFLOPs
		total.BackwardFLOPs += st.BackwardFLOPs
	}
	s1 := b.Conv1.OutputShape(in)
	add(b.Conv1.Stats(in))
	add(b.BN1.Stats(s1))
	add(b.Relu1.Stats(s1))
	s2 := b.Conv2.OutputShape(s1)
	add(b.Conv2.Stats(s1))
	add(b.BN2.Stats(s2))
	add(b.Relu2.Stats(s2))
	s3 := b.Conv3.OutputShape(s2)
	add(b.Conv3.Stats(s2))
	add(b.BN3.Stats(s3))
	if b.DownConv != nil {
		ds := b.DownConv.OutputShape(in)
		add(b.DownConv.Stats(in))
		add(b.DownBN.Stats(ds))
	}
	add(b.reluOut.Stats(s3))
	total.OutputElems = prod(s3)
	total.ParamBytesFP32 = int64(total.ParamCount) * 4
	total.ActBytesFP32 = total.ActivationElems * 4
	total.OutputBytesFP32 = total.OutputElems * 4
	return total
}
