//go:build !amd64 || purego

package tensor

func haveAVX2() bool { return false }

func gemmTileVec(d, a, b []float64, n, as, kc, nc int) {
	panic("tensor: no vector GEMM tile in this build")
}
