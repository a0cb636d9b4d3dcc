package tensor

import (
	"fmt"
	"testing"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// Kernel microbenchmarks for the compute engine. Run with -benchmem: the
// Into variants must report ~0 allocs/op at steady state, and BENCH_baseline.json
// at the repo root tracks the numbers across PRs.

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

// BenchmarkGemmModelShapes measures the three GEMM storage orders, on one
// worker, on the im2col shapes of the benchmark student's convolutions
// (outC x ColRows x ColsN, one per width plus the stem) in the roles a
// training step uses them — NN for the forward (outC,ColRows)x(ColRows,ColsN),
// TN for the column gradient (outC,ColRows)ᵀx(outC,ColsN), NT for the weight
// gradient (outC,ColsN)x(ColRows,ColsN)ᵀ — plus two cubes as the machine
// reference. The narrow shapes (ColsN = 16 and 4) hold over half the model's
// FLOPs, and a kernel tuned on the cubes alone can be 3x short there.
func BenchmarkGemmModelShapes(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	shapes := [][3]int{ // outC, ColRows, ColsN
		{8, 9, 256}, {8, 72, 256}, {16, 144, 64}, {32, 288, 16}, {64, 576, 4},
		{128, 128, 128}, {384, 384, 384},
	}
	rng := NewRNG(3)
	for _, s := range shapes {
		outC, colRows, colsN := s[0], s[1], s[2]
		w := RandNormal(rng, 0, 1, outC, colRows)
		col := RandNormal(rng, 0, 1, colRows, colsN)
		gOut := RandNormal(rng, 0, 1, outC, colsN)
		out, dcol, dw := New(outC, colsN), New(colRows, colsN), New(outC, colRows)
		name := fmt.Sprintf("%dx%dx%d", outC, colRows, colsN)
		flops := 2 * float64(outC) * float64(colRows) * float64(colsN)
		for _, order := range []struct {
			name string
			run  func()
		}{
			{"NN", func() { MatMulInto(out, w, col) }},
			{"TN", func() { MatMulTNInto(dcol, w, gOut) }},
			{"NT", func() { MatMulNTInto(dw, gOut, col) }},
		} {
			b.Run(order.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					order.run()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
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

func BenchmarkMaxPool2D(b *testing.B) {
	input, _, _ := benchConvSetup(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D(input, 2, 2)
	}
}
