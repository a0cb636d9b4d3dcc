package main

import (
	"time"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// kernelReps is how many timed repetitions each kernel gets; the median is
// reported.
const kernelReps = 15

func medianMs(fn func()) float64 {
	fn() // fill the scratch pools
	times := make([]float64, kernelReps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = ms(time.Since(t0))
	}
	return median(times)
}

// kernelMetrics times the tensor layer alone on the shapes the workload's
// model spends its time in: a 128-cube GEMM as the machine reference, the
// im2col GEMM of the model's first-stage 3x3 convolution (width channels at
// side x side), and that convolution forward and backward at the workload's
// batch size. From a CPU run these say what the kernels deliver, not what
// the hardware could.
func kernelMetrics(m metricSet, width, side, batch int) {
	rng := tensor.NewRNG(7)
	gflops := func(rows, inner, cols int) float64 {
		a := tensor.RandNormal(rng, 0, 1, rows, inner)
		b := tensor.RandNormal(rng, 0, 1, inner, cols)
		dst := tensor.New(rows, cols)
		t := medianMs(func() { tensor.MatMulInto(dst, a, b) })
		return 2 * float64(rows) * float64(inner) * float64(cols) / (t * 1e6)
	}
	m.set("tensor.matmul_gflops", gflops(128, 128, 128))
	m.set("tensor.matmul_model_gflops", gflops(width, 9*width, side*side))

	in := tensor.RandNormal(rng, 0, 1, batch, width, side, side)
	w := tensor.RandNormal(rng, 0, 1, width, width, 3, 3)
	out := tensor.Conv2D(in, w, nil, 1, 1)
	m.set("tensor.conv_fwd_ms", medianMs(func() { tensor.Conv2DInto(out, in, w, nil, 1, 1) }))
	m.set("tensor.conv_bwd_ms", medianMs(func() { tensor.Conv2DBackward(in, w, false, out, 1, 1) }))
}
