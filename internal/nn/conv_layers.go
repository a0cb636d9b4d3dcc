package nn

import (
	"fmt"
	"math"

	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW tensors.
type Conv2D struct {
	name                string
	InC, OutC           int
	Kernel, Stride, Pad int
	W, B                *Param
	hasBias             bool
	lastIn              *tensor.Tensor
}

// NewConv2D creates a convolution layer with Kaiming-initialised weights.
func NewConv2D(name string, inC, outC, kernel, stride, pad int, bias bool, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad, hasBias: bias,
	}
	c.W = NewParam(name+".weight", tensor.KaimingConv(rng, outC, inC, kernel, kernel))
	if bias {
		c.B = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank(x, 4, "Conv2D")
	if x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D %s expects %d input channels, got %d", c.name, c.InC, x.Dim(1)))
	}
	c.lastIn = x
	var bias *tensor.Tensor
	if c.hasBias {
		bias = c.B.Value
	}
	return tensor.Conv2D(x, c.W.Value, bias, c.Stride, c.Pad)
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastIn == nil {
		panic("nn: Conv2D.Backward called before Forward")
	}
	gi, gw, gb := tensor.Conv2DBackward(c.lastIn, c.W.Value, c.hasBias, gradOut, c.Stride, c.Pad)
	c.W.Grad.AddInPlace(gw)
	if c.hasBias {
		c.B.Grad.AddInPlace(gb)
	}
	return gi
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.hasBias {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

// OutputShape implements Layer.
func (c *Conv2D) OutputShape(in []int) []int {
	g := tensor.NewConvGeom(in[1], in[2], in[3], c.OutC, c.Kernel, c.Kernel, c.Stride, c.Pad)
	return g.OutputShape(in[0])
}

// Stats implements StatsProvider.
func (c *Conv2D) Stats(in []int) Stats {
	out := c.OutputShape(in)
	params := c.OutC * c.InC * c.Kernel * c.Kernel
	if c.hasBias {
		params += c.OutC
	}
	outElems := prod(out)
	macsPerOut := int64(c.InC * c.Kernel * c.Kernel)
	return Stats{
		ParamCount:      params,
		ActivationElems: prod(in),
		OutputElems:     outElems,
		ForwardFLOPs:    2 * outElems * macsPerOut,
		BackwardFLOPs:   4 * outElems * macsPerOut,
	}
}

// BatchNorm2D normalises each channel of an NCHW tensor over the batch and
// spatial dimensions, with learnable scale (gamma) and shift (beta).
type BatchNorm2D struct {
	name        string
	C           int
	Eps         float64
	Momentum    float64
	Gamma, Beta *Param
	// Running statistics for inference mode.
	RunningMean, RunningVar *tensor.Tensor
	// Backward cache: a reference to the forward input (a convolution's
	// fresh output) and the per-channel statistics. Backward recomputes the
	// normalised activations from them with the forward's own expression, so
	// the layer copies nothing.
	batchMean []float64
	batchVar  []float64
	lastIn    *tensor.Tensor
}

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
	}
	bn.Gamma = NewParam(name+".gamma", tensor.Ones(c))
	bn.Beta = NewParam(name+".beta", tensor.New(c))
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.name }

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return bn.forward(x, train, nil, nil)
}

// forward normalises x and then, plane by plane while the plane is in cache,
// adds res if it is non-nil and applies relu in place if it is non-nil,
// recording the result as relu's output. Each element sees the roundings of
// BatchNorm2D, AddInPlace and ReLU run one after another, in that order.
func (bn *BatchNorm2D) forward(x *tensor.Tensor, train bool, res *tensor.Tensor, relu *ReLU) *tensor.Tensor {
	mustRank(x, 4, "BatchNorm2D")
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D %s expects %d channels, got %d", bn.name, bn.C, c))
	}
	out := x.NewLike()
	var rd []float64
	if res != nil {
		if !res.SameShape(x) {
			panic(fmt.Sprintf("nn: BatchNorm2D %s: shortcut shape %v, input %v", bn.name, res.Shape(), x.Shape()))
		}
		rd = res.Data()
	}
	bn.lastIn = x
	if cap(bn.batchMean) < c {
		bn.batchMean = make([]float64, c)
		bn.batchVar = make([]float64, c)
	}
	bn.batchMean = bn.batchMean[:c]
	bn.batchVar = bn.batchVar[:c]
	area := h * w
	xd, od := x.Data(), out.Data()
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	gam, bet := bn.Gamma.Value.Data(), bn.Beta.Value.Data()

	// Channels are fully independent (statistics, running averages and the
	// normalised outputs all live at per-channel offsets), so the channel
	// loop parallelizes with bit-identical results at any worker count.
	parallel.For(c, 4, func(clo, chi int) {
		if train {
			ch := clo
			for ; ch+4 <= chi; ch += 4 {
				mean, variance := channelStats4(xd, n, c, area, ch)
				for j := range mean {
					bn.setStats(ch+j, mean[j], variance[j])
				}
			}
			for ; ch < chi; ch++ {
				mean, variance := channelStats(xd, n, c, area, ch)
				bn.setStats(ch, mean, variance)
			}
		} else {
			copy(bn.batchMean[clo:chi], rm[clo:chi])
			copy(bn.batchVar[clo:chi], rv[clo:chi])
		}
		for ch := clo; ch < chi; ch++ {
			mean, invStd := bn.batchMean[ch], bn.invStd(ch)
			g := gam[ch]
			bta := bet[ch]
			for b := 0; b < n; b++ {
				off := ((b * c) + ch) * area
				o := od[off : off+area]
				for i, v := range xd[off : off+area][:len(o)] {
					o[i] = g*((v-mean)*invStd) + bta
				}
				if rd != nil {
					for i, v := range rd[off : off+area][:len(o)] {
						o[i] += v
					}
				}
				if relu != nil {
					reluInto(o, o)
				}
			}
		}
	})
	if relu != nil {
		relu.out = out
	}
	return out
}

// setStats records channel ch's batch statistics and folds them into the
// running averages.
func (bn *BatchNorm2D) setStats(ch int, mean, variance float64) {
	bn.batchMean[ch] = mean
	bn.batchVar[ch] = variance
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	rm[ch] = (1-bn.Momentum)*rm[ch] + bn.Momentum*mean
	rv[ch] = (1-bn.Momentum)*rv[ch] + bn.Momentum*variance
}

// channelStats returns channel ch's batch mean and biased variance, each sum
// one sequential chain in (sample, pixel) order.
func channelStats(xd []float64, n, c, area, ch int) (mean, variance float64) {
	count := float64(n * area)
	sum := 0.0
	for b := 0; b < n; b++ {
		off := ((b * c) + ch) * area
		for _, v := range xd[off : off+area] {
			sum += v
		}
	}
	mean = sum / count
	sq := 0.0
	for b := 0; b < n; b++ {
		off := ((b * c) + ch) * area
		for _, v := range xd[off : off+area] {
			d := v - mean
			sq += d * d
		}
	}
	return mean, sq / count
}

// channelStats4 is channelStats for channels ch…ch+3 side by side: four
// independent chains, each in the order channelStats adds, so the results
// are bit for bit channelStats' and the add latency overlaps.
func channelStats4(xd []float64, n, c, area, ch int) (mean, variance [4]float64) {
	count := float64(n * area)
	var s0, s1, s2, s3 float64
	for b := 0; b < n; b++ {
		off := ((b * c) + ch) * area
		p := xd[off : off+4*area]
		p0, p1, p2, p3 := p[:area], p[area:2*area], p[2*area:3*area], p[3*area:]
		p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
		for i, v := range p0 {
			s0 += v
			s1 += p1[i]
			s2 += p2[i]
			s3 += p3[i]
		}
	}
	m0, m1, m2, m3 := s0/count, s1/count, s2/count, s3/count
	var q0, q1, q2, q3 float64
	for b := 0; b < n; b++ {
		off := ((b * c) + ch) * area
		p := xd[off : off+4*area]
		p0, p1, p2, p3 := p[:area], p[area:2*area], p[2*area:3*area], p[3*area:]
		p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
		for i, v := range p0 {
			d0, d1, d2, d3 := v-m0, p1[i]-m1, p2[i]-m2, p3[i]-m3
			q0 += d0 * d0
			q1 += d1 * d1
			q2 += d2 * d2
			q3 += d3 * d3
		}
	}
	return [4]float64{m0, m1, m2, m3}, [4]float64{q0 / count, q1 / count, q2 / count, q3 / count}
}

// Backward implements Layer. It implements the standard batch-norm gradient
// for training mode (batch statistics).
func (bn *BatchNorm2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if bn.lastIn == nil {
		panic("nn: BatchNorm2D.Backward called before Forward")
	}
	x := bn.lastIn
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	area := h * w
	count := float64(n * area)
	gradIn := x.NewLike()
	gd, xd, gid := gradOut.Data(), x.Data(), gradIn.Data()
	gam, gg, bg := bn.Gamma.Value.Data(), bn.Gamma.Grad.Data(), bn.Beta.Grad.Data()

	// finish books channel ch's parameter gradients and writes its input
	// gradient: dx = (gamma*invStd/count) * (count*dy - sumDy - xhat*sumDyXhat).
	finish := func(ch int, sumDy, sumDyXhat float64) {
		gg[ch] += sumDyXhat
		bg[ch] += sumDy
		mean, invStd := bn.batchMean[ch], bn.invStd(ch)
		scale := gam[ch] * invStd / count
		for b := 0; b < n; b++ {
			off := ((b * c) + ch) * area
			gi := gid[off : off+area]
			dy := gd[off : off+area][:len(gi)]
			for i, v := range xd[off : off+area][:len(gi)] {
				gi[i] = scale * (count*dy[i] - sumDy - (v-mean)*invStd*sumDyXhat)
			}
		}
	}
	parallel.For(c, 4, func(clo, chi int) {
		ch := clo
		for ; ch+4 <= chi; ch += 4 {
			sumDy, sumDyXhat := bn.gradSums4(gd, xd, n, area, ch)
			for j := range sumDy {
				finish(ch+j, sumDy[j], sumDyXhat[j])
			}
		}
		for ; ch < chi; ch++ {
			sumDy, sumDyXhat := bn.gradSums(gd, xd, n, area, ch)
			finish(ch, sumDy, sumDyXhat)
		}
	})
	return gradIn
}

// invStd is channel ch's 1/sqrt(var+eps) under the last forward's statistics.
func (bn *BatchNorm2D) invStd(ch int) float64 { return 1.0 / math.Sqrt(bn.batchVar[ch]+bn.Eps) }

// gradSums returns channel ch's sums of dy and of dy·xhat, each one chain in
// (sample, pixel) order, with xhat recomputed as the forward computed it.
func (bn *BatchNorm2D) gradSums(gd, xd []float64, n, area, ch int) (sumDy, sumDyXhat float64) {
	mean, invStd := bn.batchMean[ch], bn.invStd(ch)
	for b := 0; b < n; b++ {
		off := ((b * bn.C) + ch) * area
		dy := gd[off : off+area]
		for i, v := range xd[off : off+area][:len(dy)] {
			sumDy += dy[i]
			sumDyXhat += dy[i] * ((v - mean) * invStd)
		}
	}
	return sumDy, sumDyXhat
}

// gradSums4 is gradSums for channels ch…ch+3 side by side, bit for bit.
func (bn *BatchNorm2D) gradSums4(gd, xd []float64, n, area, ch int) (sumDy, sumDyXhat [4]float64) {
	m0, m1, m2, m3 := bn.batchMean[ch], bn.batchMean[ch+1], bn.batchMean[ch+2], bn.batchMean[ch+3]
	r0, r1, r2, r3 := bn.invStd(ch), bn.invStd(ch+1), bn.invStd(ch+2), bn.invStd(ch+3)
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for b := 0; b < n; b++ {
		off := ((b * bn.C) + ch) * area
		x, g := xd[off:off+4*area], gd[off:off+4*area]
		x0, x1, x2, x3 := x[:area], x[area:2*area], x[2*area:3*area], x[3*area:]
		g0, g1, g2, g3 := g[:area], g[area:2*area], g[2*area:3*area], g[3*area:]
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		g0, g1, g2, g3 = g0[:len(x0)], g1[:len(x0)], g2[:len(x0)], g3[:len(x0)]
		for i, v := range x0 {
			s0 += g0[i]
			t0 += g0[i] * ((v - m0) * r0)
			s1 += g1[i]
			t1 += g1[i] * ((x1[i] - m1) * r1)
			s2 += g2[i]
			t2 += g2[i] * ((x2[i] - m2) * r2)
			s3 += g3[i]
			t3 += g3[i] * ((x3[i] - m3) * r3)
		}
	}
	return [4]float64{s0, s1, s2, s3}, [4]float64{t0, t1, t2, t3}
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// StateTensors implements Stateful: the running statistics are the only
// non-trainable state a checkpoint must carry for exact inference-mode
// behaviour after a resume.
func (bn *BatchNorm2D) StateTensors() []NamedState {
	return []NamedState{
		{Name: bn.name + ".running_mean", Tensor: bn.RunningMean},
		{Name: bn.name + ".running_var", Tensor: bn.RunningVar},
	}
}

// OutputShape implements Layer.
func (bn *BatchNorm2D) OutputShape(in []int) []int { return append([]int(nil), in...) }

// Stats implements StatsProvider.
func (bn *BatchNorm2D) Stats(in []int) Stats {
	n := prod(in)
	// ActivationElems is the paper framework's accounting: the input and the
	// normalised xhat. This engine keeps only a reference to the input (the
	// producing convolution's output) and recomputes xhat in Backward.
	return Stats{
		ParamCount:      2 * bn.C,
		ActivationElems: 2 * n,
		OutputElems:     n,
		ForwardFLOPs:    4 * n,
		BackwardFLOPs:   8 * n,
	}
}

// MaxPool2D is a max pooling layer.
type MaxPool2D struct {
	name    string
	Kernel  int
	Stride  int
	inShape []int
	argmax  []int
}

// NewMaxPool2D creates a max-pool layer.
func NewMaxPool2D(name string, kernel, stride int) *MaxPool2D {
	return &MaxPool2D{name: name, Kernel: kernel, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank(x, 4, "MaxPool2D")
	m.inShape = x.AppendShape(m.inShape)
	out, arg := tensor.MaxPool2D(x, m.Kernel, m.Stride)
	m.argmax = arg
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if m.argmax == nil {
		panic("nn: MaxPool2D.Backward called before Forward")
	}
	return tensor.MaxPool2DBackward(m.inShape, m.argmax, gradOut)
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// OutputShape implements Layer.
func (m *MaxPool2D) OutputShape(in []int) []int {
	outH := (in[2]-m.Kernel)/m.Stride + 1
	outW := (in[3]-m.Kernel)/m.Stride + 1
	return []int{in[0], in[1], outH, outW}
}

// Stats implements StatsProvider.
func (m *MaxPool2D) Stats(in []int) Stats {
	out := m.OutputShape(in)
	return Stats{
		ActivationElems: prod(out), // argmax indices, same cardinality as output
		OutputElems:     prod(out),
		ForwardFLOPs:    prod(in),
		BackwardFLOPs:   prod(out),
	}
}

// GlobalAvgPool2D averages each channel map to a single value, producing (N, C).
type GlobalAvgPool2D struct {
	name    string
	inShape []int
}

// NewGlobalAvgPool2D creates a global average pooling layer.
func NewGlobalAvgPool2D(name string) *GlobalAvgPool2D { return &GlobalAvgPool2D{name: name} }

// Name implements Layer.
func (g *GlobalAvgPool2D) Name() string { return g.name }

// Forward implements Layer.
func (g *GlobalAvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	mustRank(x, 4, "GlobalAvgPool2D")
	g.inShape = x.AppendShape(g.inShape)
	return tensor.GlobalAvgPool2D(x)
}

// Backward implements Layer.
func (g *GlobalAvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic("nn: GlobalAvgPool2D.Backward called before Forward")
	}
	return tensor.GlobalAvgPool2DBackward(g.inShape, gradOut)
}

// Params implements Layer.
func (g *GlobalAvgPool2D) Params() []*Param { return nil }

// OutputShape implements Layer.
func (g *GlobalAvgPool2D) OutputShape(in []int) []int { return []int{in[0], in[1]} }

// Stats implements StatsProvider.
func (g *GlobalAvgPool2D) Stats(in []int) Stats {
	return Stats{
		OutputElems:   int64(in[0] * in[1]),
		ForwardFLOPs:  prod(in),
		BackwardFLOPs: prod(in),
	}
}
