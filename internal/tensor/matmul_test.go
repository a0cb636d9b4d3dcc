package tensor

import (
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// naiveMatMul is the reference triple loop the blocked kernels are pinned
// against: ascending-k accumulation, no zero skipping, no blocking.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func randMat(rng *RNG, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.data {
		t.data[i] = rng.Normal(0, 1)
	}
	return t
}

// TestMatMulMatchesNaiveRandomShapes is the property test pinning the
// blocked kernel (and its TN/NT siblings) to the naive reference over
// randomized shapes, including sizes that straddle the blocking factors.
func TestMatMulMatchesNaiveRandomShapes(t *testing.T) {
	rng := NewRNG(42)
	dims := []int{1, 2, 3, 5, 17, 64, 129, 300}
	for trial := 0; trial < 40; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		want := naiveMatMul(a, b)

		if got := MatMul(a, b); MaxAbsDiff(got, want) != 0 {
			t.Fatalf("MatMul (%d,%d)x(%d,%d) differs from naive by %g", m, k, k, n, MaxAbsDiff(got, want))
		}
		// TN: build aT stored (k,m) such that aTᵀ == a.
		aT := Transpose(a)
		if got := MatMulTN(aT, b); MaxAbsDiff(got, want) != 0 {
			t.Fatalf("MatMulTN (%d,%d)ᵀx(%d,%d) differs from naive", k, m, k, n)
		}
		// NT: build bT stored (n,k) such that bTᵀ == b.
		bT := Transpose(b)
		if got := MatMulNT(a, bT); MaxAbsDiff(got, want) != 0 {
			t.Fatalf("MatMulNT (%d,%d)x(%d,%d)ᵀ differs from naive", m, k, n, k)
		}
	}
}

// kernelPaths lists the micro-kernel paths this build and CPU can run, as
// values for useVec: the vector tile where there is one, and the Go strips,
// which every build has.
func kernelPaths() []bool {
	if useVec {
		return []bool{true, false}
	}
	return []bool{false}
}

// onKernelPath runs f with the GEMM micro-kernel forced to one path.
func onKernelPath(vec bool, f func()) {
	defer func(prev bool) { useVec = prev }(useVec)
	useVec = vec
	f()
}

func pathName(vec bool) string {
	if vec {
		return "vector"
	}
	return "go"
}

// sameBits reports whether two results are the same float64, bit for bit,
// except that any NaN matches any NaN: which operand's payload a NaN result
// carries is decided by operand order inside an instruction, in
// compiler-generated code as much as in the vector tile, and nothing
// downstream reads payloads.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// TestGemmKernelsBitIdenticalToNaive is the kernel conformance test: the
// four row-range kernels under every conv, linear and MatMul call must
// reproduce the naive triple loop bit for bit — signed zeros included — on
// every micro-kernel path of this build: on the benchmark student's im2col
// shapes, every residue of m against the strip height and of n against the
// vector tile's eight and four columns, k of one, three and around the gemmKC
// panel boundary, row sub-ranges starting one, two and three rows into a
// strip, zero-heavy and signed-zero operands, infinities, subnormals, sums
// that overflow half way, NaNs, and (NNAcc, NTAcc) a non-zero destination to
// accumulate into. Rows outside [lo,hi) must not be touched.
func TestGemmKernelsBitIdenticalToNaive(t *testing.T) {
	shapes := [][3]int{ // m, k, n
		{8, 9, 256}, {8, 72, 256}, {16, 144, 64}, {32, 288, 16}, {64, 576, 4}, // model, forward
		{8, 256, 9}, {8, 256, 72}, {32, 16, 288}, {64, 4, 576}, // model, weight gradient
		{7, 13, 5}, {3, 5, 9}, {1, 1, 1},
		{6, 1, 6}, // k = 1
	}
	for m := 1; m <= 2*gemmMR+1; m++ { // every tile edge: 0-2 strips + 0-3 rows, 0-2 wide tiles + 0-1 narrow + 0-3 columns
		for n := 1; n <= 20; n++ {
			shapes = append(shapes, [3]int{m, 3, n})
		}
	}
	for _, k := range []int{gemmKC - 1, gemmKC, gemmKC + 1, 2*gemmKC + 1} { // panel boundary
		shapes = append(shapes, [3]int{5, k, 13}, [3]int{4, k, 8})
	}
	negZero := math.Copysign(0, -1)
	pick := func(vals ...float64) func(rng *RNG, xs []float64) {
		return func(rng *RNG, xs []float64) {
			for i := range xs {
				xs[i] = vals[rng.Intn(len(vals))]
			}
		}
	}
	big := math.Sqrt(math.MaxFloat64) * 0.9 // big*big is finite, twice that is not
	fills := []struct {
		name string
		fn   func(rng *RNG, xs []float64)
	}{
		{"normal", func(rng *RNG, xs []float64) {
			for i := range xs {
				xs[i] = rng.Normal(0, 1)
			}
		}},
		{"zero-heavy", func(rng *RNG, xs []float64) {
			for i := range xs {
				xs[i] = 0
				if rng.Intn(5) == 0 {
					xs[i] = rng.Normal(0, 1)
				}
			}
		}},
		{"signed-zero", pick(0, negZero, 1, -1, negZero, 0.5)},
		{"inf", pick(math.Inf(1), math.Inf(-1), 1, -2, 0, negZero, 0.5, 3)},
		{"subnormal", pick(5e-324, -5e-324, 3e-310, -7e-315, 1, -1, 0.5, 1e-300, 2)},
		{"overflow", pick(big, -big, big, 1, -1, 0.25)},
		{"nan", pick(math.NaN(), 1, -1, 0, 2, 0.5, -3, math.Inf(1))},
	}
	const sentinel = 12345.0
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		ranges := [][2]int{{0, m}}
		for lo := 1; lo <= 3 && lo < m; lo++ {
			ranges = append(ranges, [2]int{lo, m})
		}
		if m >= 4 {
			ranges = append(ranges, [2]int{1, m - 1})
		}
		for _, fill := range fills {
			rng := NewRNG(uint64(1000*m + 10*k + n))
			a, b, init := New(m, k), New(k, n), New(m, n)
			fill.fn(rng, a.data)
			fill.fn(rng, b.data)
			fill.fn(rng, init.data) // what NNAcc and NTAcc accumulate into
			aT, bT := Transpose(a), Transpose(b)

			// want[0] starts every element from +0, want[1] from init.
			var want [2][]float64
			for w, start := range [][]float64{make([]float64, m*n), init.data} {
				want[w] = make([]float64, m*n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						s := start[i*n+j]
						for p := 0; p < k; p++ {
							s += a.data[i*k+p] * b.data[p*n+j]
						}
						want[w][i*n+j] = s
					}
				}
			}

			for _, r := range ranges {
				lo, hi := r[0], r[1]
				kernels := []struct {
					name  string
					want  []float64
					start []float64 // copied into rows [lo,hi) of dst first; nil leaves the sentinel
					run   func(dst []float64)
				}{
					{"NN", want[0], nil, func(dst []float64) { gemmNN(dst, a.data, b.data, k, n, lo, hi) }},
					{"NNAcc", want[1], init.data, func(dst []float64) { gemmNNAcc(dst, a.data, b.data, k, n, lo, hi) }},
					{"TN", want[0], nil, func(dst []float64) { gemmTN(dst, aT.data, b.data, k, m, n, lo, hi) }},
					{"NTAcc", want[1], init.data, func(dst []float64) { gemmNTAcc(dst, a.data, bT.data, k, n, lo, hi) }},
				}
				for _, vec := range kernelPaths() {
					for _, kr := range kernels {
						dst := make([]float64, m*n)
						for i := range dst {
							dst[i] = sentinel
						}
						if kr.start != nil {
							copy(dst[lo*n:hi*n], kr.start[lo*n:hi*n])
						}
						onKernelPath(vec, func() { kr.run(dst) })
						for i := 0; i < m; i++ {
							for j := 0; j < n; j++ {
								got, exp := dst[i*n+j], sentinel
								if i >= lo && i < hi {
									exp = kr.want[i*n+j]
								}
								if !sameBits(got, exp) {
									t.Fatalf("%s (%s path) %s %dx%dx%d rows [%d,%d): element (%d,%d) = %v (%#x), want %v (%#x)",
										kr.name, pathName(vec), fill.name, m, k, n, lo, hi, i, j, got, math.Float64bits(got), exp, math.Float64bits(exp))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulZeroHeavyInputs pins the behaviour that replaced the old
// data-dependent `if av == 0 { continue }` fast path: results on zero-heavy
// inputs must match the dense reference exactly, with no value-dependent
// branches changing the arithmetic.
func TestMatMulZeroHeavyInputs(t *testing.T) {
	rng := NewRNG(7)
	a := randMat(rng, 37, 53)
	b := randMat(rng, 53, 29)
	// Zero out ~80% of a and half the rows of b.
	for i := range a.data {
		if rng.Uint64()%5 != 0 {
			a.data[i] = 0
		}
	}
	for p := 0; p < 53; p += 2 {
		for j := 0; j < 29; j++ {
			b.data[p*29+j] = 0
		}
	}
	want := naiveMatMul(a, b)
	if got := MatMul(a, b); MaxAbsDiff(got, want) != 0 {
		t.Fatalf("zero-heavy MatMul differs from naive by %g", MaxAbsDiff(got, want))
	}
	// An all-zero operand must produce an exactly zero result.
	z := New(37, 53)
	got := MatMul(z, b)
	for i, v := range got.data {
		if v != 0 {
			t.Fatalf("all-zero MatMul produced %g at %d", v, i)
		}
	}
}

func TestMatMulIntoVariantsWriteDst(t *testing.T) {
	rng := NewRNG(9)
	a := randMat(rng, 8, 12)
	b := randMat(rng, 12, 5)
	want := naiveMatMul(a, b)

	// Stale destination contents must be fully overwritten by every variant.
	dst := Full(999, 8, 5)
	MatMulInto(dst, a, b)
	if MaxAbsDiff(dst, want) != 0 {
		t.Fatal("MatMulInto did not overwrite stale destination contents")
	}
	dst.Fill(999)
	MatMulTNInto(dst, Transpose(a), b) // Transpose(a) is (12,8) stored TN
	if MaxAbsDiff(dst, want) != 0 {
		t.Fatal("MatMulTNInto did not overwrite stale destination contents")
	}
	dst.Fill(999)
	MatMulNTInto(dst, a, Transpose(b)) // Transpose(b) is (5,12) stored NT
	if MaxAbsDiff(dst, want) != 0 {
		t.Fatal("MatMulNTInto did not overwrite stale destination contents")
	}
}

// TestKernelsBitIdenticalAcrossWorkerCounts asserts the headline determinism
// guarantee: every kernel produces byte-for-byte identical results whether
// it runs serially or with many workers.
func TestKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := NewRNG(11)
	a := randMat(rng, 67, 130)
	b := randMat(rng, 130, 41)
	input := RandNormal(rng, 0, 1, 3, 4, 11, 11)
	weight := RandNormal(rng, 0, 0.5, 6, 4, 3, 3)
	bias := RandNormal(rng, 0, 0.5, 6)
	single := RandNormal(rng, 0, 1, 1, 4, 11, 11)

	type result struct {
		mm, conv, convN1, gi, gw, gb *Tensor
		arg                          []int
	}
	run := func(workers int) result {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		out := Conv2D(input, weight, bias, 1, 1)
		gi, gw, gb := Conv2DBackward(input, weight, true, out, 1, 1)
		_, arg := MaxPool2D(input, 2, 2)
		return result{
			mm:     MatMul(a, b),
			conv:   out,
			convN1: Conv2D(single, weight, bias, 1, 1),
			gi:     gi, gw: gw, gb: gb,
			arg: arg,
		}
	}
	ref := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		for name, pair := range map[string][2]*Tensor{
			"MatMul":            {ref.mm, got.mm},
			"Conv2D":            {ref.conv, got.conv},
			"Conv2D batch1":     {ref.convN1, got.convN1},
			"Conv2DBackward gi": {ref.gi, got.gi},
			"Conv2DBackward gw": {ref.gw, got.gw},
			"Conv2DBackward gb": {ref.gb, got.gb},
		} {
			if d := MaxAbsDiff(pair[0], pair[1]); d != 0 {
				t.Errorf("workers=%d: %s differs from serial by %g", w, name, d)
			}
		}
		for i := range ref.arg {
			if ref.arg[i] != got.arg[i] {
				t.Errorf("workers=%d: MaxPool2D argmax differs at %d", w, i)
				break
			}
		}
	}
}

// TestConv2DIntoMatchesConv2D pins the allocation-free entry point to the
// allocating wrapper.
func TestConv2DIntoMatchesConv2D(t *testing.T) {
	rng := NewRNG(13)
	input := RandNormal(rng, 0, 1, 2, 3, 9, 9)
	weight := RandNormal(rng, 0, 0.5, 5, 3, 3, 3)
	want := Conv2D(input, weight, nil, 2, 1)
	dst := want.NewLike()
	dst.Fill(123)
	Conv2DInto(dst, input, weight, nil, 2, 1)
	if MaxAbsDiff(dst, want) != 0 {
		t.Fatal("Conv2DInto differs from Conv2D")
	}
}
