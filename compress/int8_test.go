package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// refInt8 is the dense int8 encoding as four passes did it: add the
// residual, scan for the grid (stopping at the first non-finite value),
// quantize through a byte, and store the error computed from that byte.
func refInt8(data, residual []float64) (out []byte, work []float64) {
	work = make([]float64, len(data))
	for j, v := range data {
		work[j] = v + residual[j]
	}
	min, scale := refGrid(work)
	out = make([]byte, 16+len(work))
	binary.LittleEndian.PutUint64(out, math.Float64bits(min))
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(scale))
	for j, v := range work {
		var q byte
		if scale != 0 {
			r := math.RoundToEven((v - min) / scale)
			switch {
			case !(r >= 0):
			case r > 255:
				q = 255
			default:
				q = byte(r)
			}
		}
		out[16+j] = q
		work[j] = v - (min + scale*float64(q))
	}
	return out, work
}

// TestInt8TwoPassMatchesReference: the two-pass encoder (addResidual, then
// encodeInt8 on int8Grid) leaves the same bytes and the same residual bits
// as the four passes it replaced, on values that probe every branch: ±0 as
// the minimum, subnormals, a constant tensor, a range that overflows, and
// NaN or ±Inf anywhere.
func TestInt8TwoPassMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(11)
	negZero := math.Copysign(0, -1)
	cases := map[string]func(j int) float64{
		"normal":      func(j int) float64 { return rng.Normal(0, 1) },
		"-0 minimum":  func(j int) float64 { return []float64{negZero, 0, 0.5, 1e-310}[j%4] },
		"+0 then -0":  func(j int) float64 { return []float64{0, negZero, 3}[j%3] },
		"subnormal":   func(j int) float64 { return float64(j%7-3) * math.SmallestNonzeroFloat64 },
		"constant":    func(j int) float64 { return -2.5 },
		"overflowing": func(j int) float64 { return []float64{-math.MaxFloat64, math.MaxFloat64, 1}[j%3] },
		"NaN first":   func(j int) float64 { return []float64{math.NaN(), 1, 2}[min(j, 2)] },
		"+Inf last":   func(j int) float64 { return []float64{1, 2, math.Inf(1)}[j%3] },
		"-Inf":        func(j int) float64 { return []float64{1, math.Inf(-1), 2}[j%3] },
	}
	for name, gen := range cases {
		for _, n := range []int{1, 3, 100} {
			data, residual := make([]float64, n), make([]float64, n)
			for j := range data {
				data[j] = gen(j)
				residual[j] = []float64{0, negZero, rng.Normal(0, 1e-3)}[j%3]
			}
			wantOut, wantRes := refInt8(data, residual)

			work := append([]float64(nil), residual...)
			lo, hi, finite := addResidual(work, data)
			min, scale := int8Grid(lo, hi, finite)
			out := make([]byte, 16+n)
			encodeInt8(out, work, min, scale)
			if !bytes.Equal(out, wantOut) {
				t.Fatalf("%s, n=%d: bytes %x, reference %x", name, n, out, wantOut)
			}
			for j := range work {
				if math.Float64bits(work[j]) != math.Float64bits(wantRes[j]) {
					t.Fatalf("%s, n=%d: residual %d is %v, reference %v", name, n, j, work[j], wantRes[j])
				}
			}
			for _, v := range [][]float64{data, wantRes} {
				pm, ps := int8Params(v)
				rm, rs := refGrid(v)
				if math.Float64bits(pm) != math.Float64bits(rm) || math.Float64bits(ps) != math.Float64bits(rs) {
					t.Fatalf("%s, n=%d: int8Params (%v, %v), reference (%v, %v)", name, n, pm, ps, rm, rs)
				}
			}
		}
	}
}

// refGrid is the grid scan int8Params did before: stop at the first
// non-finite value, else span [min, max] in 255 steps.
func refGrid(vals []float64) (min, scale float64) {
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN(), math.NaN()
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if scale = (max - min) / 255; scale == 0 || math.IsInf(scale, 0) {
		scale = 0
	}
	return min, scale
}
