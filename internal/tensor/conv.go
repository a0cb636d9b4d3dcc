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
// ColRows*ColsN. Padding positions contribute zeros.
func (g ConvGeom) Im2Col(img []float64, col []float64) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows*g.ColsN {
		panic(fmt.Sprintf("tensor: Im2Col column length %d, want %d", len(col), g.ColRows*g.ColsN))
	}
	idx := 0
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							col[idx] = 0
							idx++
						}
						continue
					}
					rowOff := chOff + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							col[idx] = 0
						} else {
							col[idx] = img[rowOff+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

// Im2Row is Im2Col transposed: it expands a single image into the patch
// matrix of shape (OutH*OutW, InC*KH*KW), one output position per row, so
// rows[p*ColRows+r] == col[r*ColsN+p]. The weight gradient multiplies by this
// form, which puts the long tap dimension where the GEMM vectorises.
func (g ConvGeom) Im2Row(img []float64, rows []float64) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Row image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(rows) != g.ColRows*g.ColsN {
		panic(fmt.Sprintf("tensor: Im2Row patch matrix length %d, want %d", len(rows), g.ColRows*g.ColsN))
	}
	idx := 0
	for oh := 0; oh < g.OutH; oh++ {
		for ow := 0; ow < g.OutW; ow++ {
			iw0 := ow*g.StrideW - g.PadW
			for c := 0; c < g.InC; c++ {
				chOff := c * g.InH * g.InW
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.StrideH - g.PadH + kh
					patch := rows[idx : idx+g.KW]
					idx += g.KW
					if ih < 0 || ih >= g.InH {
						zeroFloats(patch)
						continue
					}
					rowOff := chOff + ih*g.InW
					for kw := range patch {
						if iw := iw0 + kw; iw < 0 || iw >= g.InW {
							patch[kw] = 0
						} else {
							patch[kw] = img[rowOff+iw]
						}
					}
				}
			}
		}
	}
}

// Col2Im accumulates a column matrix (as produced by Im2Col) back into an
// image gradient buffer of length InC*InH*InW. The buffer is NOT zeroed; the
// caller controls accumulation semantics.
func (g ConvGeom) Col2Im(col []float64, img []float64) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows*g.ColsN {
		panic(fmt.Sprintf("tensor: Col2Im column length %d, want %d", len(col), g.ColRows*g.ColsN))
	}
	idx := 0
	for c := 0; c < g.InC; c++ {
		chOff := c * g.InH * g.InW
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						idx += g.OutW
						continue
					}
					rowOff := chOff + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw >= 0 && iw < g.InW {
							img[rowOff+iw] += col[idx]
						}
						idx++
					}
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
// The batch is processed in parallel with pooled per-worker scratch; the
// weight gradient is accumulated as per-image partials folded in batch
// order, so the result is bit-identical at any worker count. Both GEMMs are
// column-vectorisable: the column gradient is wᵀ x gOut (TN), and the weight
// gradient gOut x colᵀ — whose k, the output positions, is contiguous in both
// operands — is computed as gOut x rows over the transposed patch matrix
// (Im2Row), an NN-accumulate that adds the same products in the same
// ascending-position order. The backward needs no patch matrix in column
// form, and no Transpose temporaries are materialized.
func Conv2DBackward(input, weight *Tensor, hasBias bool, gradOut *Tensor, stride, pad int) (gradInput, gradWeight, gradBias *Tensor) {
	g := convGeomChecked("Conv2DBackward", input, weight, gradOut, stride, pad)
	n, inC, inH, inW := input.shape[0], g.InC, g.InH, g.InW
	outC := g.OutC

	gradInput = New(input.shape...)
	gradWeight = New(weight.shape...)
	if hasBias {
		gradBias = New(outC)
	}
	wd := weight.data
	gwd := gradWeight.data
	imgLen := inC * inH * inW
	outLen := outC * g.ColsN
	colLen := g.ColRows * g.ColsN
	wLen := outC * g.ColRows

	if n == 1 {
		rowsp := getScratch(colLen)
		dcolp := getScratch(colLen)
		rows, dcol := *rowsp, *dcolp
		gOut := gradOut.data[:outLen]
		g.Im2Row(input.data[:imgLen], rows)
		// dW = gOut (outC, ColsN) x rows (ColsN, ColRows); gradWeight starts zeroed.
		parallel.For(outC, gemmRowGrain(g.ColsN, g.ColRows), func(lo, hi int) {
			gemmNNAcc(gwd, gOut, rows, g.ColsN, g.ColRows, lo, hi)
		})
		// dcol = wᵀ (ColRows, outC) x gOut, then scatter back to the image.
		parallel.For(g.ColRows, gemmRowGrain(outC, g.ColsN), func(lo, hi int) {
			gemmTN(dcol, wd, gOut, outC, g.ColRows, g.ColsN, lo, hi)
		})
		g.Col2Im(dcol, gradInput.data[:imgLen])
		putScratch(rowsp)
		putScratch(dcolp)
	} else {
		// One chunk per image: chunk boundaries (and therefore the partial
		// weight-gradient association order) never depend on worker count.
		partials := make([]*[]float64, parallel.Chunks(n, 1))
		parallel.ForChunks(n, 1, func(chunk, lo, hi int) {
			rowsp := getScratch(colLen)
			dcolp := getScratch(colLen)
			dwp := getScratch(wLen)
			rows, dcol, dw := *rowsp, *dcolp, *dwp
			zeroFloats(dw)
			for b := lo; b < hi; b++ {
				img := input.data[b*imgLen : (b+1)*imgLen]
				gOut := gradOut.data[b*outLen : (b+1)*outLen]
				g.Im2Row(img, rows)
				gemmNNAcc(dw, gOut, rows, g.ColsN, g.ColRows, 0, outC)
				gemmTN(dcol, wd, gOut, outC, g.ColRows, g.ColsN, 0, g.ColRows)
				g.Col2Im(dcol, gradInput.data[b*imgLen:(b+1)*imgLen])
			}
			partials[chunk] = dwp
			putScratch(rowsp)
			putScratch(dcolp)
		})
		// Every element of the weight gradient adds its per-image partials
		// in batch order; which worker adds an element changes nothing.
		parallel.For(wLen, elemGrain, func(lo, hi int) {
			dst := gwd[lo:hi]
			for _, p := range partials {
				for i, v := range (*p)[lo:hi] {
					dst[i] += v
				}
			}
		})
		for _, p := range partials {
			putScratch(p)
		}
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
