//go:build amd64 && !purego

package tensor

import "testing"

// TestVectorTileRefusesShortOperands: the assembly tile has no bounds checks
// of its own, so its Go wrapper must refuse a dst, a or b that ends before
// the last element the tile would touch — one element short is enough — and
// must do so before a single store: neither the operands nor the guard region
// kept after each slice in its backing array change. With every operand
// exactly long enough the call runs and stays inside them.
func TestVectorTileRefusesShortOperands(t *testing.T) {
	const n, as, kc, nc, guard = 12, 7, 5, 12, 16
	const sentinel = -7777.0
	need := [3]int{(gemmMR-1)*n + nc, (gemmMR-1)*as + kc, (kc-1)*n + nc} // dst, a, b
	for short, name := range []string{"dst", "a", "b", "none"} {
		if name == "none" && !useVec {
			continue // nothing here can execute the tile
		}
		var backing, ops [3][]float64
		for i, ln := range need {
			backing[i] = make([]float64, ln+guard)
			for j := range backing[i] {
				backing[i][j] = 1
				if j >= ln {
					backing[i][j] = sentinel
				}
			}
			if i == short {
				ln--
			}
			ops[i] = backing[i][:ln]
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			gemmTileVec(ops[0], ops[1], ops[2], n, as, kc, nc)
			return
		}()
		if panicked != (name != "none") {
			t.Fatalf("%s short: panicked = %v", name, panicked)
		}
		for i, bk := range backing {
			for j, v := range bk {
				want := 1.0
				switch {
				case j >= need[i]:
					want = sentinel
				case i == 0 && !panicked && j%n < nc:
					want = 1 + kc
				}
				if v != want {
					t.Fatalf("%s short: operand %d element %d = %v, want %v", name, i, j, v, want)
				}
			}
		}
	}
}

// BenchmarkRooflineAVX2 is BenchmarkRoofline's multiply-add rate for the
// vector tile: eight YMM accumulators, one VMULPD and one VADDPD each per
// step, no loads.
func BenchmarkRooflineAVX2(b *testing.B) {
	if !useVec {
		b.Skip("no AVX2")
	}
	const steps = 4096
	for i := 0; i < b.N; i++ {
		mulAddPeakAVX2(steps)
	}
	b.ReportMetric(64*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
