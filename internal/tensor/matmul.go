package tensor

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// GEMM kernels. All three storage orders the training loops need are provided
// natively — NN (a·b), TN (aᵀ·b) and NT (a·bᵀ) — so callers never materialize
// a Transpose temporary, and every Conv2DInto, Conv2DBackward, nn.Linear and
// MatMul*Into call bottoms out in one of gemmNN, gemmNNAcc, gemmTN and
// gemmNTAcc below.
//
// Each kernel walks its rows gemmMR at a time and hands a strip of dst and one
// gemmKC-deep k-panel to a micro-kernel that holds a tile of outputs in
// registers across the panel: load the tile from dst, add the panel's
// products one k at a time, store it back. NN and TN (which first gathers its
// strided columns of a into a stack buffer) share gemmStrip, and gemmStrip has
// the package's one fork:
//
//   - On amd64 with AVX2 (and an OS that saves the YMM state; probed once at
//     init, see useVec) the tile is 4 rows x 8 columns of YMM accumulators in
//     gemm_amd64.s, with a 4-column tail. It vectorises across output columns:
//     a lane is one output element, a k step broadcasts a(i,p) and does one
//     VMULPD and one VADDPD against a row of b.
//   - Everywhere else (other architectures, no AVX2, or the purego build tag)
//     the tile is stripNN's 2x2 block of Go locals, two calls per strip. 2x2 is
//     the largest shape whose accumulators and products the Go compiler keeps
//     in registers: with eight accumulators (2x4, 4x2) it spills one across
//     the k loop's back edge and the store-to-load round trip bounds the step.
//     Its operand rows are sliced before the k loop so the loop carries no
//     per-element bounds check (stripNN re-slices its strided b row once per
//     step; bce_allow.txt beside this file is what CI compares
//     -d=ssa/check_bce against). The same strips are the oracle the tests
//     hold the vector tile to.
//
// NT keeps its own Go strip (stripNT): its operands are contiguous in k, so
// its lanes would have to hold partial sums of one element, and adding those
// up reorders the sum. nn.Linear is its only user; the convolution's weight
// gradient, which has this shape, is computed transposed instead, as an NN
// product of the patch matrix and a transposed copy of the upstream gradient
// (see Conv2DBackward). Ragged rows and columns go through gemmEdge, a scalar
// loop with the same load / accumulate-a-panel / store shape.
//
// Ordering guarantee: whichever path produces an output element, it starts
// from the value in dst (zero for NN and TN) and adds its k products one at a
// time in ascending k, rounding each product and then each sum to float64.
// That is the naive triple loop's arithmetic, so results are bit-identical to
// it, and — because an element never depends on which chunk, tile or lane it
// fell in — at every worker count and on both paths. It is also why the
// vector tile must never use a fused multiply-add: FMA rounds once per step
// instead of twice, which is more accurate and a different number, and every
// bit-identity pin in the repository (worker counts, transports, restarts,
// recomputed forwards against first forwards on another machine) would then
// hold only between machines with the same instruction set.
const (
	// gemmKC is the k-extent of a panel: the tile is stored and reloaded
	// between panels so that a gemmKC-row slab of b stays cache-resident
	// while the rows of a stream against it.
	gemmKC = 256
	// gemmMR x gemmNR is the granule both micro-kernels work in: a strip is
	// gemmMR rows high and covers the columns up to the last multiple of
	// gemmNR; what is left over is gemmEdge's.
	gemmMR = 4
	gemmNR = 4
	// gemmChunkFlops is the target number of multiply-adds per parallel
	// chunk; the row grain is derived from it so small problems stay serial
	// and large ones cut enough chunks to balance load.
	gemmChunkFlops = 1 << 17
)

// useVec selects the micro-kernel under gemmStrip. It is set once, here, and
// is a variable only so the kernel tests can run both paths in one process.
var useVec = haveAVX2()

// gemmRowGrain returns the rows-per-chunk grain for an (m,k)x(k,n) product,
// a multiple of the tile height so only the last chunk can end on a ragged
// row. It is a pure function of the shape, which keeps chunk boundaries (and
// therefore reductions layered on top) independent of the worker count.
func gemmRowGrain(k, n int) int {
	work := k * n
	if work <= 0 {
		return gemmMR
	}
	g := gemmChunkFlops / work
	return max(g-g%gemmMR, gemmMR)
}

func matmulCheckRank2(a, b *Tensor, op string) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensors, got ranks %d and %d", op, a.Rank(), b.Rank()))
	}
}

func matmulCheckDst(dst *Tensor, m, n int, op string) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.shape, m, n))
	}
}

// MatMul multiplies two rank-2 tensors: (m,k) x (k,n) -> (m,n).
func MatMul(a, b *Tensor) *Tensor {
	matmulCheckRank2(a, b, "MatMul")
	return MatMulInto(New(a.shape[0], b.shape[1]), a, b)
}

// MatMulInto computes dst = a x b for rank-2 tensors a (m,k) and b (k,n)
// into the caller-provided dst (m,n), overwriting it, and returns dst.
// dst must not alias a or b. It allocates nothing.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	matmulCheckRank2(a, b, "MatMulInto")
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("%v: MatMul inner dimensions %d vs %d", ErrShapeMismatch, k, k2))
	}
	matmulCheckDst(dst, m, n, "MatMulInto")
	parallel.For(m, gemmRowGrain(k, n), func(lo, hi int) {
		gemmNN(dst.data, a.data, b.data, k, n, lo, hi)
	})
	return dst
}

// MatMulTN computes aᵀ x b for a (k,m) and b (k,n), returning a new (m,n)
// tensor. It is the transpose-free replacement for MatMul(Transpose(a), b).
func MatMulTN(a, b *Tensor) *Tensor {
	matmulCheckRank2(a, b, "MatMulTN")
	return MatMulTNInto(New(a.shape[1], b.shape[1]), a, b)
}

// MatMulTNInto computes dst = aᵀ x b into the caller-provided dst (m,n),
// overwriting it. dst must not alias a or b. It allocates nothing.
func MatMulTNInto(dst, a, b *Tensor) *Tensor {
	matmulCheckRank2(a, b, "MatMulTNInto")
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("%v: MatMulTN inner dimensions %d vs %d", ErrShapeMismatch, k, k2))
	}
	matmulCheckDst(dst, m, n, "MatMulTNInto")
	parallel.For(m, gemmRowGrain(k, n), func(lo, hi int) {
		gemmTN(dst.data, a.data, b.data, k, m, n, lo, hi)
	})
	return dst
}

// MatMulNT computes a x bᵀ for a (m,k) and b (n,k), returning a new (m,n)
// tensor. It is the transpose-free replacement for MatMul(a, Transpose(b)).
func MatMulNT(a, b *Tensor) *Tensor {
	matmulCheckRank2(a, b, "MatMulNT")
	return MatMulNTInto(New(a.shape[0], b.shape[0]), a, b)
}

// MatMulNTInto computes dst = a x bᵀ into the caller-provided dst (m,n),
// overwriting it. dst must not alias a or b. It allocates nothing.
func MatMulNTInto(dst, a, b *Tensor) *Tensor {
	matmulCheckRank2(a, b, "MatMulNTInto")
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("%v: MatMulNT inner dimensions %d vs %d", ErrShapeMismatch, k, k2))
	}
	matmulCheckDst(dst, m, n, "MatMulNTInto")
	parallel.For(m, gemmRowGrain(k, n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zeroFloats(dst.data[i*n : (i+1)*n])
		}
		gemmNTAcc(dst.data, a.data, b.data, k, n, lo, hi)
	})
	return dst
}

// gemmNN computes rows [lo,hi) of dst = a x b.
func gemmNN(dst, a, b []float64, k, n, lo, hi int) {
	zeroFloats(dst[lo*n : hi*n])
	gemmNNAcc(dst, a, b, k, n, lo, hi)
}

// gemmNNAcc accumulates rows [lo,hi) of dst += a x b.
func gemmNNAcc(dst, a, b []float64, k, n, lo, hi int) {
	nt := n - n%gemmNR
	st := gemmStrides{ai: k, ap: 1, bp: n, bj: 1}
	for pc := 0; pc < k; pc += gemmKC {
		pe := min(pc+gemmKC, k)
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			gemmStrip(dst[i*n:], a[i*k+pc:], b[pc*n:], n, k, pe-pc, nt)
		}
		gemmEdge(dst, a, b, n, st, lo, i, nt, n, pc, pe)
		gemmEdge(dst, a, b, n, st, i, hi, 0, n, pc, pe)
	}
}

// gemmTN computes rows [lo,hi) of dst = aᵀ x b, a stored (k,m). The gemmMR
// rows of aᵀ under a strip are strided columns of a; they are gathered once
// per strip into a stack buffer, which turns the rest into gemmNN's strip.
func gemmTN(dst, a, b []float64, k, m, n, lo, hi int) {
	zeroFloats(dst[lo*n : hi*n])
	nt := n - n%gemmNR
	st := gemmStrides{ai: 1, ap: m, bp: n, bj: 1}
	var cols [gemmMR * gemmKC]float64
	for pc := 0; pc < k; pc += gemmKC {
		pe := min(pc+gemmKC, k)
		kc := pe - pc
		a0, a1, a2, a3 := cols[:kc], cols[gemmKC:][:kc], cols[2*gemmKC:][:kc], cols[3*gemmKC:][:kc]
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			oa := pc*m + i
			for p := range a0 {
				ap := a[oa : oa+gemmMR : oa+gemmMR]
				a0[p], a1[p], a2[p], a3[p] = ap[0], ap[1], ap[2], ap[3]
				oa += m
			}
			gemmStrip(dst[i*n:], cols[:], b[pc*n:], n, gemmKC, kc, nt)
		}
		gemmEdge(dst, a, b, n, st, lo, i, nt, n, pc, pe)
		gemmEdge(dst, a, b, n, st, i, hi, 0, n, pc, pe)
	}
}

// gemmStrip accumulates one k-panel of kc steps into a strip of gemmMR rows
// of dst and its first nc columns, nc a multiple of gemmNR: d is dst from the
// strip's first row on and b is b from the panel's first row on, both with
// row stride n; a is the first row of a from the panel's first k on, and its
// rows are as apart.
func gemmStrip(d, a, b []float64, n, as, kc, nc int) {
	switch {
	case nc == 0:
	case useVec:
		gemmTileVec(d, a, b, n, as, kc, nc)
	default:
		stripNN(d[:nc], d[n:n+nc], a[:kc], a[as:as+kc], b, n)
		stripNN(d[2*n:2*n+nc], d[3*n:3*n+nc], a[2*as:2*as+kc], a[3*as:3*as+kc], b, n)
	}
}

// gemmNTAcc accumulates rows [lo,hi) of dst += a x bᵀ, b stored (n,k).
func gemmNTAcc(dst, a, b []float64, k, n, lo, hi int) {
	nt := n - n%2 // stripNT's tile is 2x2
	st := gemmStrides{ai: k, ap: 1, bp: 1, bj: k}
	for pc := 0; pc < k; pc += gemmKC {
		pe := min(pc+gemmKC, k)
		i := lo
		for ; i+2 <= hi; i += 2 {
			a0, a1 := a[i*k+pc:i*k+pe], a[(i+1)*k+pc:(i+1)*k+pe]
			stripNT(dst[i*n:i*n+nt], dst[(i+1)*n:(i+1)*n+nt], a0, a1, b[pc:], k)
		}
		gemmEdge(dst, a, b, n, st, lo, i, nt, n, pc, pe)
		gemmEdge(dst, a, b, n, st, i, hi, 0, n, pc, pe)
	}
}

// stripNN accumulates one k-panel into two rows of dst, d0 and d1 (cut to an
// even number of columns), one 2x2 register tile at a time: a0 and a1 are the
// panel's slice of the two rows of a, b starts at the panel's first row, with
// row stride n.
func stripNN(d0, d1, a0, a1, b []float64, n int) {
	d1 = d1[:len(d0)]
	a1 = a1[:len(a0)]
	for j := 0; j+2 <= len(d0); j += 2 {
		c00, c01 := d0[j], d0[j+1]
		c10, c11 := d1[j], d1[j+1]
		ob := j
		for p, x0 := range a0 {
			x1 := a1[p]
			bp := b[ob : ob+2 : ob+2]
			ob += n
			c00 += x0 * bp[0]
			c01 += x0 * bp[1]
			c10 += x1 * bp[0]
			c11 += x1 * bp[1]
		}
		d0[j], d0[j+1] = c00, c01
		d1[j], d1[j+1] = c10, c11
	}
}

// stripNT is stripNN with b stored (n,k): b starts at the panel's first k,
// with row stride k, so all four operand streams are contiguous.
func stripNT(d0, d1, a0, a1, b []float64, k int) {
	d1 = d1[:len(d0)]
	kc := len(a0)
	a1 = a1[:kc]
	for j := 0; j+2 <= len(d0); j += 2 {
		c00, c01 := d0[j], d0[j+1]
		c10, c11 := d1[j], d1[j+1]
		b0, b1 := b[j*k:][:kc], b[(j+1)*k:][:kc]
		for p, x0 := range a0 {
			x1 := a1[p]
			c00 += x0 * b0[p]
			c01 += x0 * b1[p]
			c10 += x1 * b0[p]
			c11 += x1 * b1[p]
		}
		d0[j], d0[j+1] = c00, c01
		d1[j], d1[j+1] = c10, c11
	}
}

// gemmStrides locates the operands of one storage order: a(i,p) is
// a[i*ai+p*ap] and b(p,j) is b[p*bp+j*bj].
type gemmStrides struct{ ai, ap, bp, bj int }

// gemmEdge is the scalar edge loop shared by the three storage orders: it
// accumulates k-panel [pc,pe) into the dst block [i0,i1) x [j0,j1).
func gemmEdge(dst, a, b []float64, n int, st gemmStrides, i0, i1, j0, j1, pc, pe int) {
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			s := dst[i*n+j]
			oa, ob := i*st.ai+pc*st.ap, pc*st.bp+j*st.bj
			for p := pc; p < pe; p++ {
				s += a[oa] * b[ob]
				oa += st.ap
				ob += st.bp
			}
			dst[i*n+j] = s
		}
	}
}
