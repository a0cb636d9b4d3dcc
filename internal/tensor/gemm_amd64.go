//go:build amd64 && !purego

package tensor

import "fmt"

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// across context switches (OSXSAVE set and XCR0 enabling SSE and AVX state).
func haveAVX2() bool {
	const osxsave, avx, avx2, xmmYmm = 1 << 27, 1 << 28, 1 << 5, 6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

//go:noescape
func tileAVX2(d, a, b *float64, n, as, kc, nc int)

// gemmTileVec is gemmStrip's vector micro-kernel. The assembly behind it does
// no bounds checking, so the last element each operand is read or written at
// is checked here, where a wrong shape is still a panic and not a stray
// store.
func gemmTileVec(d, a, b []float64, n, as, kc, nc int) {
	if kc < 1 || nc < gemmNR || nc%gemmNR != 0 || n < 0 || as < 0 ||
		len(d) < (gemmMR-1)*n+nc || len(a) < (gemmMR-1)*as+kc || len(b) < (kc-1)*n+nc {
		panic(fmt.Sprintf("tensor: GEMM strip of %d columns x %d steps outside its operands: row stride %d, dst len %d, b len %d, a len %d with row stride %d",
			nc, kc, n, len(d), len(b), len(a), as))
	}
	tileAVX2(&d[0], &a[0], &b[0], n, as, kc, nc)
}

// mulAddPeakAVX2 runs steps (>= 1) k steps of the vector tile on registers
// alone: 64 flops a step. It is the kernel benchmark's roofline, nothing else
// calls it; it lives here because assembly cannot be test-only.
//
//go:noescape
func mulAddPeakAVX2(steps int)
