package tensor

import (
	"fmt"
	"testing"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// Kernel microbenchmarks for the compute engine. Run with -benchmem: the
// Into variants must report ~0 allocs/op at steady state.

func BenchmarkMatMul(b *testing.B) {
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 128, 128)
	c := RandNormal(rng, 0, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 128, 128)
	c := RandNormal(rng, 0, 1, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

func BenchmarkMatMulNaive(b *testing.B) {
	// The pre-engine baseline: single-threaded ijk loop with the old
	// data-dependent zero skip, kept here so the blocked kernel's win stays
	// measurable release over release.
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 128, 128)
	c := RandNormal(rng, 0, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		m, k, n := 128, 128, 128
		out := New(m, n)
		for i := 0; i < m; i++ {
			arow := a.data[i*k : (i+1)*k]
			orow := out.data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := c.data[p*n : (p+1)*n]
				for j := 0; j < n; j++ {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

func BenchmarkMatMulTN(b *testing.B) {
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 128, 128)
	c := RandNormal(rng, 0, 1, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTNInto(dst, a, c)
	}
}

func BenchmarkMatMulNT(b *testing.B) {
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 128, 128)
	c := RandNormal(rng, 0, 1, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulNTInto(dst, a, c)
	}
}

// BenchmarkGemmModelShapes measures the GEMM kernels, on one worker and on
// every micro-kernel path this build has (path=vector, path=go), on the
// im2col shapes of the benchmark student's convolutions (outC x ColRows x
// ColsN, one per width plus the stem) in the roles a training step uses them:
//   - NN for the forward, (outC,ColRows)x(ColRows,ColsN);
//   - TN for the column gradient, (outC,ColRows)ᵀx(outC,ColsN). This is
//     nn.Linear's weight-gradient order too; Conv2DBackward runs the same
//     product as NN over the weight transposed once per call;
//   - dW for the weight gradient as Conv2DBackward computes it, transposed:
//     (ColRows,ColsN)x(ColsN,outC), the patch matrix times a transposed copy
//     of the upstream gradient;
//   - NT, nn.Linear's forward order (the weight gradient's before it moved
//     to dW). It has no vector form, so both paths read the same.
//
// Two cubes are the machine reference. The narrow shapes (ColsN = 16 and 4)
// hold over half the model's FLOPs, and a kernel tuned on the cubes alone can
// be 3x short there. Read the numbers against BenchmarkRoofline's.
func BenchmarkGemmModelShapes(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	shapes := [][3]int{ // outC, ColRows, ColsN
		{8, 9, 256}, {8, 72, 256}, {16, 144, 64}, {32, 288, 16}, {64, 576, 4},
		{128, 128, 128}, {384, 384, 384},
	}
	for _, vec := range kernelPaths() {
		rng := NewRNG(3)
		for _, s := range shapes {
			outC, colRows, colsN := s[0], s[1], s[2]
			w := RandNormal(rng, 0, 1, outC, colRows)
			col := RandNormal(rng, 0, 1, colRows, colsN)
			gOut := RandNormal(rng, 0, 1, outC, colsN)
			gOutT := Transpose(gOut)
			out, dcol, dw, dwT := New(outC, colsN), New(colRows, colsN), New(outC, colRows), New(colRows, outC)
			name := fmt.Sprintf("%dx%dx%d", outC, colRows, colsN)
			flops := 2 * float64(outC) * float64(colRows) * float64(colsN)
			for _, role := range []struct {
				name string
				run  func()
			}{
				{"NN", func() { MatMulInto(out, w, col) }},
				{"TN", func() { MatMulTNInto(dcol, w, gOut) }},
				{"dW", func() { MatMulInto(dwT, col, gOutT) }},
				{"NT", func() { MatMulNTInto(dw, gOut, col) }},
			} {
				b.Run("path="+pathName(vec)+"/"+role.name+"/"+name, func(b *testing.B) {
					onKernelPath(vec, func() {
						for i := 0; i < b.N; i++ {
							role.run()
						}
					})
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

var rooflineSink float64

// BenchmarkRoofline is what the box can do, to read BenchmarkGemmModelShapes
// against: the multiply-add rate of the Go strips' own inner step with nothing
// to wait for (four accumulators in registers, each adding one rounded product
// per step, the multiplier re-read from one L1-resident line so the products
// cannot be hoisted), and the copy bandwidth patch-matrix building is bounded
// by, cache-resident and streaming. BenchmarkRooflineAVX2 has the vector
// tile's counterpart.
func BenchmarkRoofline(b *testing.B) {
	b.Run("muladd-scalar", func(b *testing.B) {
		xs := [8]float64{1.0000001, 0.9999999, 1.0000002, 0.9999998, 1.0000003, 0.9999997, 1.0000004, 0.9999996}
		y0, y1 := 1e-9, -1e-9
		var c00, c01, c10, c11 float64
		const steps = 4096
		for i := 0; i < b.N; i++ {
			for p := 0; p < steps; p += 2 {
				x0, x1 := xs[p&6], xs[p&6+1]
				c00 += x0 * y0
				c01 += x0 * y1
				c10 += x1 * y0
				c11 += x1 * y1
			}
		}
		rooflineSink = c00 + c01 + c10 + c11
		b.ReportMetric(2*4*float64(steps/2)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	for _, size := range []int{32 << 10, 16 << 20} {
		b.Run(fmt.Sprintf("copy-%dKB", size>>10), func(b *testing.B) {
			src, dst := make([]float64, size/8), make([]float64, size/8)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(dst, src)
			}
		})
	}
}

func benchConvSetup(batch int) (input, weight, bias *Tensor) {
	rng := NewRNG(2)
	input = RandNormal(rng, 0, 1, batch, 8, 32, 32)
	weight = RandNormal(rng, 0, 0.5, 16, 8, 3, 3)
	bias = RandNormal(rng, 0, 0.5, 16)
	return
}

func BenchmarkConv2DForward(b *testing.B) {
	input, weight, bias := benchConvSetup(4)
	out := New(4, 16, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInto(out, input, weight, bias, 1, 1)
	}
}

func BenchmarkConv2DForwardBatch1(b *testing.B) {
	input, weight, bias := benchConvSetup(1)
	out := New(1, 16, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInto(out, input, weight, bias, 1, 1)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	input, weight, _ := benchConvSetup(4)
	gradOut := Conv2D(input, weight, nil, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DBackward(input, weight, false, gradOut, 1, 1)
	}
}

// BenchmarkConvNodeShapes times the convolution forward and backward, batch 8
// on one worker, on every convolution shape of the benchmark's node model
// (BuildSmall{ResNet34, Stages 4, BaseWidth 8} on 16×16 frames): its 3×3
// shapes, the one-channel stem included, and its three 1×1/2 downsample
// convolutions. The names read inC x outC, input plane, kernel and stride.
// The 4×4 and 2×2 planes give patch-matrix rows of 4 to 16 elements, so a
// patch builder tuned on the wide planes alone can lose there.
func BenchmarkConvNodeShapes(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const batch = 8
	shapes := [][5]int{ // inC, outC, plane, kernel, stride
		{1, 8, 16, 3, 1}, {8, 8, 16, 3, 1}, {8, 16, 16, 3, 2}, {16, 16, 8, 3, 1},
		{16, 32, 8, 3, 2}, {32, 32, 4, 3, 1}, {32, 64, 4, 3, 2}, {64, 64, 2, 3, 1},
		{8, 16, 16, 1, 2}, {16, 32, 8, 1, 2}, {32, 64, 4, 1, 2},
	}
	rng := NewRNG(5)
	for _, s := range shapes {
		inC, outC, plane, k, stride := s[0], s[1], s[2], s[3], s[4]
		pad := k / 2
		input := RandNormal(rng, 0, 1, batch, inC, plane, plane)
		weight := RandNormal(rng, 0, 0.5, outC, inC, k, k)
		out := Conv2D(input, weight, nil, stride, pad)
		name := fmt.Sprintf("%dx%d/%dx%d/k%ds%d", inC, outC, plane, plane, k, stride)
		b.Run("fwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Conv2DInto(out, input, weight, nil, stride, pad)
			}
		})
		b.Run("bwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Conv2DBackward(input, weight, false, out, stride, pad)
			}
		})
	}
}

func BenchmarkMaxPool2D(b *testing.B) {
	input, _, _ := benchConvSetup(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D(input, 2, 2)
	}
}
