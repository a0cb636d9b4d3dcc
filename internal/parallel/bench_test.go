package parallel

import (
	"fmt"
	"testing"
	"time"
)

var benchSink float64

// burn is a dependent multiply-add chain: about 2 ns an iteration on the
// 2.1 GHz reference box, and nothing a second core can contend for.
func burn(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// BenchmarkForkJoin is the cost of one parallel region: 8 chunks whose body
// runs for about 2, 12 and 100 µs (the im2col GEMM of a deep stage, a
// batch-norm channel, one image of a first-stage convolution), back to back
// and with 30 µs of serial work on the caller between regions — the mean gap
// inside a training step. ns/region is the time inside ForChunks alone; run it
// with -cpu 1,2: the -cpu 1 rows are the inline cost, 8 bodies and nothing
// else.
func BenchmarkForkJoin(b *testing.B) {
	const chunks = 8
	for _, body := range []int{1000, 6000, 50000} {
		for _, gap := range []int{0, 15000} {
			name := fmt.Sprintf("body=%dus/gap=%dus", body*2/1000, gap*2/1000)
			b.Run(name, func(b *testing.B) {
				var parts [chunks]float64
				region := func() {
					ForChunks(chunks, 1, func(c, _, _ int) { parts[c] = burn(body) })
				}
				for i := 0; i < 100; i++ {
					region()
				}
				var inside time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					region()
					inside += time.Since(start)
					benchSink += burn(gap)
				}
				b.ReportMetric(float64(inside.Nanoseconds())/float64(b.N), "ns/region")
			})
		}
	}
}
