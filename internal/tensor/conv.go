package tensor

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// ConvGeom describes the geometry of a 2-D convolution or pooling operation on
// NCHW tensors.
type ConvGeom struct {
	InC, InH, InW  int // input channels and spatial size
	KH, KW         int // kernel size
	StrideH        int
	StrideW        int
	PadH, PadW     int
	OutC           int // output channels (ignored by pooling)
	OutH, OutW     int // computed output spatial size
	ColRows, ColsN int // im2col matrix dimensions: (InC*KH*KW) x (OutH*OutW)
}

// NewConvGeom computes output sizes for the given convolution parameters.
// It panics if the configuration produces an empty output.
func NewConvGeom(inC, inH, inW, outC, kH, kW, stride, pad int) ConvGeom {
	g := ConvGeom{
		InC: inC, InH: inH, InW: inW,
		KH: kH, KW: kW,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
		OutC: outC,
	}
	g.OutH = (inH+2*pad-kH)/stride + 1
	g.OutW = (inW+2*pad-kW)/stride + 1
	if g.OutH <= 0 || g.OutW <= 0 {
		panic(fmt.Sprintf("tensor: convolution geometry produces empty output: in %dx%d kernel %dx%d stride %d pad %d",
			inH, inW, kH, kW, stride, pad))
	}
	g.ColRows = inC * kH * kW
	g.ColsN = g.OutH * g.OutW
	return g
}

// OutputShape returns the NCHW output shape for batch size n.
func (g ConvGeom) OutputShape(n int) []int { return []int{n, g.OutC, g.OutH, g.OutW} }

// Im2Col expands a single image (C,H,W view into data) into a column matrix
// of shape (InC*KH*KW, OutH*OutW) stored into col, which must have length
// ColRows*ColsN: row c*KH*KW + kh*KW + kw holds, for every output position
// (oh, ow), input element (c, oh*StrideH - PadH + kh, ow*StrideW - PadW + kw),
// and +0 where that falls in the padding.
//
// The bounds are worked out once per tap (convTap), not per element, and
// shared by every channel. On a wide output plane each channel then fills
// its row in spans: at stride 1 with an output as wide as the input (the
// "same" 3×3 convolutions) the tap's source is one shifted span of the
// plane, copied whole, with the edge columns it wraps into cleared after;
// otherwise a row is gathered at the stride. On a narrow plane (ColsN <=
// narrowPlane) a row is too short to pay for that set-up, so the channel
// loop goes innermost instead: each output position is placed, or cleared,
// in every channel's row at once.
func (g ConvGeom) Im2Col(img []float64, col []float64) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows*g.ColsN {
		panic(fmt.Sprintf("tensor: Im2Col column length %d, want %d", len(col), g.ColRows*g.ColsN))
	}
	plane, rowStride := g.InH*g.InW, g.KH*g.KW*g.ColsN
	span := g.StrideH == 1 && g.StrideW == 1 && g.OutW == g.InW
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			t := g.tap(kh, kw)
			r0 := (kh*g.KW + kw) * g.ColsN // channel c's row starts at c*rowStride + r0
			if g.ColsN <= narrowPlane {
				for oh := 0; oh < g.OutH; oh++ {
					for ow := 0; ow < g.OutW; ow++ {
						d := r0 + oh*g.OutW + ow
						if !t.has(oh, ow) {
							for c := 0; c < g.InC; c++ {
								col[d] = 0
								d += rowStride
							}
							continue
						}
						s := oh*g.StrideH*g.InW + ow*g.StrideW + t.off
						for c := 0; c < g.InC; c++ {
							col[d] = img[s]
							d += rowStride
							s += plane
						}
					}
				}
				continue
			}
			first, end := t.ohLo*g.OutW+t.owLo, (t.ohHi-1)*g.OutW+t.owHi
			for c := 0; c < g.InC; c++ {
				dst := col[c*rowStride+r0:][:g.ColsN]
				if t.ohLo == t.ohHi || t.owLo == t.owHi {
					zeroFloats(dst)
					continue
				}
				src := img[c*plane:][:plane]
				// Explicit loops, not zeroFloats: the edges are a few
				// elements, too short to pay for a call to memclr.
				for i := 0; i < first; i++ {
					dst[i] = 0
				}
				for i := end; i < len(dst); i++ {
					dst[i] = 0
				}
				if span {
					copy(dst[first:end], src[first+t.off:end+t.off])
					// Between one row's last valid column and the next
					// row's first, the span read the neighbouring row.
					w := t.owHi - t.owLo
					if gap := g.OutW - w; gap > 0 {
						for i := first + w; i < end; i += g.OutW {
							for j := i; j < i+gap; j++ {
								dst[j] = 0
							}
						}
					}
					continue
				}
				for oh := t.ohLo; oh < t.ohHi; oh++ {
					row := dst[oh*g.OutW:][:g.OutW]
					for ow := 0; ow < t.owLo; ow++ {
						row[ow] = 0
					}
					for ow := t.owHi; ow < len(row); ow++ {
						row[ow] = 0
					}
					s := oh*g.StrideH*g.InW + t.owLo*g.StrideW + t.off
					for ow := t.owLo; ow < t.owHi; ow++ {
						row[ow] = src[s]
						s += g.StrideW
					}
				}
			}
		}
	}
}

// narrowPlane is the largest output plane (OutH*OutW) Im2Col and Col2Im treat
// as narrow, running the channel loop innermost. Measured on the benchmark
// model's shapes, the channel-inner order wins up to 4×4 outputs and loses
// from 6×6 on.
const narrowPlane = 16

// convTap is one kernel tap's share of the patch matrix: output positions
// (oh, ow) in [ohLo, ohHi) x [owLo, owHi) read their channel's input element
// oh*StrideH*InW + ow*StrideW + off, and all others fall in the padding.
type convTap struct{ ohLo, ohHi, owLo, owHi, off int }

func (g ConvGeom) tap(kh, kw int) convTap {
	ohLo, ohHi := tapRange(kh, g.StrideH, g.PadH, g.InH, g.OutH)
	owLo, owHi := tapRange(kw, g.StrideW, g.PadW, g.InW, g.OutW)
	return convTap{ohLo, ohHi, owLo, owHi, (kh-g.PadH)*g.InW + kw - g.PadW}
}

func (t convTap) has(oh, ow int) bool {
	return oh >= t.ohLo && oh < t.ohHi && ow >= t.owLo && ow < t.owHi
}

// tapRange returns the range [lo, hi) of output indices o whose tap at kernel
// offset k lands inside an input of length in, 0 <= o*stride - pad + k < in,
// clipped to [0, out); lo == hi when there is none.
func tapRange(k, stride, pad, in, out int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = min((d+stride-1)/stride, out)
	}
	if e := in - 1 + pad - k; e >= 0 {
		hi = min(e/stride+1, out)
	}
	return lo, max(lo, hi)
}

// Col2Im accumulates a column matrix (as produced by Im2Col) back into an
// image gradient buffer of length InC*InH*InW. The buffer is NOT zeroed; the
// caller controls accumulation semantics. It walks Im2Col's taps in Im2Col's
// order, so an image element, which takes at most one addend per tap, takes
// them in ascending (kh, kw) whichever loop runs inside.
func (g ConvGeom) Col2Im(col []float64, img []float64) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows*g.ColsN {
		panic(fmt.Sprintf("tensor: Col2Im column length %d, want %d", len(col), g.ColRows*g.ColsN))
	}
	plane, rowStride := g.InH*g.InW, g.KH*g.KW*g.ColsN
	span := g.StrideH == 1 && g.StrideW == 1 && g.OutW == g.InW
	for kh := 0; kh < g.KH; kh++ {
		for kw := 0; kw < g.KW; kw++ {
			t := g.tap(kh, kw)
			r0 := (kh*g.KW + kw) * g.ColsN
			if g.ColsN <= narrowPlane {
				for oh := t.ohLo; oh < t.ohHi; oh++ {
					for ow := t.owLo; ow < t.owHi; ow++ {
						d, s := oh*g.StrideH*g.InW+ow*g.StrideW+t.off, r0+oh*g.OutW+ow
						for c := 0; c < g.InC; c++ {
							img[d] += col[s]
							d += plane
							s += rowStride
						}
					}
				}
				continue
			}
			w := t.owHi - t.owLo
			if w == 0 {
				continue
			}
			for c := 0; c < g.InC; c++ {
				src := col[c*rowStride+r0:][:g.ColsN]
				dst := img[c*plane:][:plane]
				if span && w == g.OutW {
					// A tap that misses no column: its rows are one span
					// of the plane, as in Im2Col, and nothing wraps.
					seg := src[t.ohLo*g.OutW : t.ohHi*g.OutW]
					dd := dst[t.ohLo*g.OutW+t.off:][:len(seg)]
					for i, v := range seg {
						dd[i] += v
					}
					continue
				}
				s, d := t.ohLo*g.OutW+t.owLo, t.ohLo*g.StrideH*g.InW+t.owLo*g.StrideW+t.off
				for oh := t.ohLo; oh < t.ohHi; oh++ {
					seg := src[s : s+w]
					if g.StrideW == 1 {
						dd := dst[d : d+w]
						for i, v := range seg {
							dd[i] += v
						}
					} else {
						for i, v := range seg {
							dst[d+i*g.StrideW] += v
						}
					}
					s += g.OutW
					d += g.StrideH * g.InW
				}
			}
		}
	}
}

// Conv2D performs a batched 2-D convolution of input (N, InC, InH, InW) with
// weights (OutC, InC, KH, KW) and optional bias (OutC). It returns the output
// tensor of shape (N, OutC, OutH, OutW). It is implemented with im2col + GEMM.
func Conv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	n := input.shape[0]
	inC, inH, inW := input.shape[1], input.shape[2], input.shape[3]
	outC, kH, kW := weight.shape[0], weight.shape[2], weight.shape[3]
	g := NewConvGeom(inC, inH, inW, outC, kH, kW, stride, pad)
	// New hands the output over zeroed, so the product accumulates straight
	// into it: clearing it a second time is what gemmNN would add.
	return conv2DInto(gemmNNAcc, New(g.OutputShape(n)...), input, weight, bias, stride, pad)
}

// convGeomChecked validates the three tensors of a convolution — the rank-4
// input (N, InC, InH, InW) and weight (OutC, InC, KH, KW), and out, which is
// the forward's output or the backward's upstream gradient and must be
// (N, OutC, OutH, OutW) — and returns the geometry. Everything below it
// indexes raw slices, in part from assembly, so a wrong shape must stop here.
func convGeomChecked(op string, input, weight, out *Tensor, stride, pad int) ConvGeom {
	if input.Rank() != 4 || weight.Rank() != 4 {
		panic(fmt.Sprintf("tensor: %s requires rank-4 input and weight", op))
	}
	n, inC := input.shape[0], input.shape[1]
	if wInC := weight.shape[1]; inC != wInC {
		panic(fmt.Sprintf("%v: %s input channels %d vs weight channels %d", ErrShapeMismatch, op, inC, wInC))
	}
	g := NewConvGeom(inC, input.shape[2], input.shape[3], weight.shape[0], weight.shape[2], weight.shape[3], stride, pad)
	if out.Rank() != 4 || out.shape[0] != n || out.shape[1] != g.OutC || out.shape[2] != g.OutH || out.shape[3] != g.OutW {
		panic(fmt.Sprintf("%v: %s output (or upstream gradient) shape %v, want %v", ErrShapeMismatch, op, out.shape, g.OutputShape(n)))
	}
	return g
}

// Conv2DInto is the allocation-free form of Conv2D: the caller provides the
// (N, OutC, OutH, OutW) output tensor, which is overwritten and returned.
// Batches with more than one image are parallelized across the batch with
// one pooled im2col workspace per worker; a single image parallelizes the
// GEMM itself over output-channel panels. Both paths compute every output
// element identically, so results do not depend on the worker count.
func Conv2DInto(out, input, weight, bias *Tensor, stride, pad int) *Tensor {
	return conv2DInto(gemmNN, out, input, weight, bias, stride, pad)
}

// conv2DInto is Conv2DInto with the product as a parameter: gemmNN for an
// output that holds anything, gemmNNAcc for one known to be all +0 — the same
// sums from the same starting value.
func conv2DInto(product func(dst, a, b []float64, k, n, lo, hi int), out, input, weight, bias *Tensor, stride, pad int) *Tensor {
	g := convGeomChecked("Conv2DInto", input, weight, out, stride, pad)
	n, inC, inH, inW := input.shape[0], g.InC, g.InH, g.InW
	outC := g.OutC
	wd := weight.data // (OutC, ColRows) row-major, same layout as the 4-D weight
	var bd []float64
	if bias != nil {
		bd = bias.data
	}
	imgLen := inC * inH * inW
	outLen := outC * g.ColsN
	colLen := g.ColRows * g.ColsN

	if n == 1 {
		colp := getScratch(colLen)
		col := *colp
		g.Im2Col(input.data[:imgLen], col)
		dst := out.data[:outLen]
		parallel.For(outC, gemmRowGrain(g.ColRows, g.ColsN), func(lo, hi int) {
			product(dst, wd, col, g.ColRows, g.ColsN, lo, hi)
			if bd != nil {
				addBiasRows(dst, bd, g.ColsN, lo, hi)
			}
		})
		putScratch(colp)
		return out
	}
	parallel.ForChunks(n, 1, func(_, lo, hi int) {
		colp := getScratch(colLen)
		col := *colp
		for b := lo; b < hi; b++ {
			img := input.data[b*imgLen : (b+1)*imgLen]
			dst := out.data[b*outLen : (b+1)*outLen]
			g.Im2Col(img, col)
			product(dst, wd, col, g.ColRows, g.ColsN, 0, outC)
			if bd != nil {
				addBiasRows(dst, bd, g.ColsN, 0, outC)
			}
		}
		putScratch(colp)
	})
	return out
}

// addBiasRows adds bias[c] to rows [lo,hi) of a (rows, cols) matrix.
func addBiasRows(dst, bias []float64, cols, lo, hi int) {
	for c := lo; c < hi; c++ {
		bv := bias[c]
		seg := dst[c*cols : (c+1)*cols]
		for i := range seg {
			seg[i] += bv
		}
	}
}

// Conv2DBackward computes gradients of a Conv2D operation. Given the input,
// weight and upstream gradient gradOut (N, OutC, OutH, OutW), it returns
// (gradInput, gradWeight, gradBias). gradBias is nil if bias was nil.
//
// Each image builds the forward's patch matrix (Im2Col) once and uses it
// twice, and both products are NN GEMMs over operands transposed up front,
// so neither has a strided k (the copies live in pooled scratch, and in
// gradWeight's own storage until the fold, so nothing is allocated for
// them):
//   - the weight gradient gOut x colᵀ, whose k (the output positions) is
//     contiguous in both operands, is computed transposed, as col x gOutᵀ
//     over a transposed copy of the image's gOut: the same products, added
//     in the same ascending-position order;
//   - the column gradient wᵀ x gOut, over the weight transposed once per
//     call, then overwrites the patch matrix and is scattered back to the
//     image with Col2Im.
//
// The batch is processed in parallel with pooled per-worker scratch; the
// weight gradient is accumulated as per-image partials folded in batch
// order, so the result is bit-identical at any worker count. A single image
// parallelizes its GEMMs over row panels instead.
func Conv2DBackward(input, weight *Tensor, hasBias bool, gradOut *Tensor, stride, pad int) (gradInput, gradWeight, gradBias *Tensor) {
	g := convGeomChecked("Conv2DBackward", input, weight, gradOut, stride, pad)
	n, inC, inH, inW := input.shape[0], g.InC, g.InH, g.InW
	outC := g.OutC

	gradInput = New(input.shape...)
	gradWeight = New(weight.shape...)
	if hasBias {
		gradBias = New(outC)
	}
	imgLen := inC * inH * inW
	outLen := outC * g.ColsN
	colLen := g.ColRows * g.ColsN
	wLen := outC * g.ColRows

	// Until the fold below overwrites every element of gradWeight, its
	// storage holds the weight transposed, (ColRows, outC).
	wT := gradWeight.data
	transposeInto(wT, weight.data, outC, g.ColRows)
	// partials[b] is image b's weight gradient, transposed: (ColRows, outC).
	partials := make([]*[]float64, n)
	image := func(b int) {
		// One pooled buffer holds the patch matrix and gOutᵀ.
		bufp := getScratch(colLen + g.ColsN*outC)
		partials[b] = getScratch(wLen)
		col, gt, dwT := (*bufp)[:colLen], (*bufp)[colLen:], *partials[b]
		gOut := gradOut.data[b*outLen : (b+1)*outLen]
		g.Im2Col(input.data[b*imgLen:(b+1)*imgLen], col)
		transposeInto(gt, gOut, outC, g.ColsN)
		// The second product overwrites the spent patch matrix.
		if n == 1 {
			parallel.For(g.ColRows, gemmRowGrain(g.ColsN, outC), func(lo, hi int) {
				gemmNN(dwT, col, gt, g.ColsN, outC, lo, hi)
			})
			parallel.For(g.ColRows, gemmRowGrain(outC, g.ColsN), func(lo, hi int) {
				gemmNN(col, wT, gOut, outC, g.ColsN, lo, hi)
			})
		} else {
			gemmNN(dwT, col, gt, g.ColsN, outC, 0, g.ColRows)
			gemmNN(col, wT, gOut, outC, g.ColsN, 0, g.ColRows)
		}
		g.Col2Im(col, gradInput.data[b*imgLen:(b+1)*imgLen])
		putScratch(bufp)
	}
	if n == 1 {
		image(0)
	} else {
		parallel.For(n, 1, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				image(b)
			}
		})
	}

	// Every element of the weight gradient adds its per-image partials in
	// batch order; which worker adds an element changes nothing. A chunk
	// folds whole rows of the transposed partials into image 0's, reading
	// each contiguously, then writes them out as a column block of
	// gradWeight. Image 0's partial stands for +0 + itself, where gradWeight
	// starts: a sum begun at +0 is never -0, so the two have the same bits.
	gwd := gradWeight.data
	acc := *partials[0]
	parallel.For(g.ColRows, max(elemGrain/(outC*n), 1), func(lo, hi int) {
		for _, p := range partials[1:] {
			dst := acc[lo*outC : hi*outC]
			for i, v := range (*p)[lo*outC : hi*outC] {
				dst[i] += v
			}
		}
		for r := lo; r < hi; r++ {
			dst := gwd[r:]
			for o, v := range acc[r*outC : (r+1)*outC] {
				dst[o*g.ColRows] = v
			}
		}
	})
	for _, p := range partials {
		putScratch(p)
	}

	if hasBias {
		gbd := gradBias.data
		for b := 0; b < n; b++ {
			gOut := gradOut.data[b*outLen : (b+1)*outLen]
			for c := 0; c < outC; c++ {
				s := 0.0
				for _, v := range gOut[c*g.ColsN : (c+1)*g.ColsN] {
					s += v
				}
				gbd[c] += s
			}
		}
	}
	return gradInput, gradWeight, gradBias
}

// MaxPool2D performs 2-D max pooling on an NCHW tensor and returns the pooled
// output along with the flat argmax index (into each image) used for backward.
func MaxPool2D(input *Tensor, k, stride int) (*Tensor, []int) {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	out := New(n, c, outH, outW)
	arg := make([]int, n*c*outH*outW)
	imgLen := c * h * w
	// Each (image, channel) plane is independent; parallelize over the
	// flattened plane index with a grain that keeps chunks coarse.
	parallel.For(n*c, poolGrain(outH*outW*k*k), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			b, ch := p/c, p%c
			img := input.data[b*imgLen : (b+1)*imgLen]
			chOff := ch * h * w
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					best := -1
					bestV := 0.0
					for kh := 0; kh < k; kh++ {
						for kw := 0; kw < k; kw++ {
							ih := oh*stride + kh
							iw := ow*stride + kw
							idx := chOff + ih*w + iw
							if best == -1 || img[idx] > bestV {
								best, bestV = idx, img[idx]
							}
						}
					}
					oidx := (p*outH+oh)*outW + ow
					out.data[oidx] = bestV
					arg[oidx] = best
				}
			}
		}
	})
	return out, arg
}

// poolGrain converts a per-plane work estimate into a planes-per-chunk grain
// targeting a few thousand operations per parallel chunk.
func poolGrain(perPlane int) int {
	if perPlane <= 0 {
		return 1
	}
	g := 4096 / perPlane
	if g < 1 {
		g = 1
	}
	return g
}

// MaxPool2DBackward scatters the upstream gradient back through a max-pool
// using the argmax indices produced by MaxPool2D.
func MaxPool2DBackward(inputShape []int, arg []int, gradOut *Tensor) *Tensor {
	gradIn := New(inputShape...)
	n := inputShape[0]
	imgLen := inputShape[1] * inputShape[2] * inputShape[3]
	perImage := len(arg) / n
	// The scatter targets lie within each image, so images are independent.
	parallel.For(n, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			base := b * imgLen
			for i := 0; i < perImage; i++ {
				oidx := b*perImage + i
				gradIn.data[base+arg[oidx]] += gradOut.data[oidx]
			}
		}
	})
	return gradIn
}

// GlobalAvgPool2D averages each channel's spatial map, producing (N, C).
func GlobalAvgPool2D(input *Tensor) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	out := New(n, c)
	area := float64(h * w)
	parallel.For(n*c, poolGrain(h*w), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			off := p * h * w
			s := 0.0
			for _, v := range input.data[off : off+h*w] {
				s += v
			}
			out.data[p] = s / area
		}
	})
	return out
}

// GlobalAvgPool2DBackward broadcasts the (N, C) gradient evenly over each
// channel's spatial map of the original (N, C, H, W) input shape.
func GlobalAvgPool2DBackward(inputShape []int, gradOut *Tensor) *Tensor {
	n, c, h, w := inputShape[0], inputShape[1], inputShape[2], inputShape[3]
	gradIn := New(inputShape...)
	area := float64(h * w)
	parallel.For(n*c, poolGrain(h*w), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			g := gradOut.data[p] / area
			seg := gradIn.data[p*h*w : (p+1)*h*w]
			for i := range seg {
				seg[i] = g
			}
		}
	})
	return gradIn
}
