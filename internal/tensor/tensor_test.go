package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 {
		t.Fatalf("Size = %d, want 24", a.Size())
	}
	for i, v := range a.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if a.Rank() != 3 || a.Dim(1) != 3 {
		t.Fatalf("rank/dim wrong: rank=%d dim1=%d", a.Rank(), a.Dim(1))
	}
}

func TestFromSliceAndAt(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(0, 0) != 1 || a.At(1, 2) != 6 || a.At(0, 2) != 3 {
		t.Fatalf("At returned wrong values: %v", a)
	}
	a.Set(42, 1, 1)
	if a.At(1, 1) != 42 {
		t.Fatalf("Set did not stick")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshape(t *testing.T) {
	a := Arange(12)
	b := a.Reshape(3, 4)
	if b.At(2, 3) != 11 {
		t.Fatalf("Reshape mislaid data: %v", b)
	}
	c := b.Reshape(2, -1)
	if c.Dim(1) != 6 {
		t.Fatalf("inferred dim = %d, want 6", c.Dim(1))
	}
	// Reshape shares data.
	c.Set(99, 0, 0)
	if a.At(0) != 99 {
		t.Fatalf("Reshape should alias backing data")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	Arange(10).Reshape(3, 4)
}

func TestCloneIndependence(t *testing.T) {
	a := Arange(5)
	b := a.Clone()
	b.Set(100, 0)
	if a.At(0) == 100 {
		t.Fatal("Clone must not alias data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 10 {
		t.Fatalf("Mul wrong: %v", got)
	}
	if got := Scale(2, a).Data(); got[2] != 6 {
		t.Fatalf("Scale wrong: %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(New(2), New(3))
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4, 1, -5, 9}, 6)
	if a.Sum() != 11 {
		t.Fatalf("Sum = %v, want 11", a.Sum())
	}
	if math.Abs(a.Mean()-11.0/6.0) > 1e-12 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if v, i := a.Max(); v != 9 || i != 5 {
		t.Fatalf("Max = %v@%d", v, i)
	}
	if v, i := a.Min(); v != -5 || i != 4 {
		t.Fatalf("Min = %v@%d", v, i)
	}
	if d := Dot(a, a) - a.Norm()*a.Norm(); math.Abs(d) > 1e-9 {
		t.Fatalf("Dot/Norm inconsistent by %v", d)
	}
}

func TestMeanEmpty(t *testing.T) {
	if New(0).Mean() != 0 {
		t.Fatal("Mean of empty tensor should be 0")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 5, 5)
	c := MatMul(a, Eye(5))
	if !AllClose(a, c, 1e-12) {
		t.Fatal("A * I != A")
	}
	c2 := MatMul(Eye(5), a)
	if !AllClose(a, c2, 1e-12) {
		t.Fatal("I * A != A")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape wrong: %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", at)
	}
}

func TestArgmaxRows(t *testing.T) {
	a := FromSlice([]float64{0.1, 0.9, 0.0, 0.5, 0.2, 0.3}, 2, 3)
	got := ArgmaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestApplyAndMap(t *testing.T) {
	a := Arange(4)
	b := a.Map(func(v float64) float64 { return v * v })
	if b.At(3) != 9 || a.At(3) != 3 {
		t.Fatalf("Map must not modify source: a=%v b=%v", a, b)
	}
	a.Apply(func(v float64) float64 { return -v })
	if a.At(2) != -2 {
		t.Fatalf("Apply in place failed: %v", a)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := Arange(3)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small tensor")
	}
	large := New(100)
	if s := large.String(); len(s) == 0 || len(s) > 200 {
		t.Fatalf("large tensor String should be a summary, got %q", s)
	}
}

func TestEyeAndOnesAndFull(t *testing.T) {
	e := Eye(3)
	if e.At(1, 1) != 1 || e.At(0, 1) != 0 {
		t.Fatal("Eye wrong")
	}
	o := Ones(2, 2)
	if o.Sum() != 4 {
		t.Fatal("Ones wrong")
	}
	f := Full(2.5, 4)
	if f.Sum() != 10 {
		t.Fatal("Full wrong")
	}
}

func TestBytes(t *testing.T) {
	if New(10, 10).Bytes() != 800 {
		t.Fatalf("Bytes = %d, want 800", New(10, 10).Bytes())
	}
}

// Property: matrix multiplication is associative (within float tolerance).
func TestMatMulAssociativeProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(seed uint8) bool {
		r := NewRNG(uint64(seed) + rng.Uint64()%1000)
		m, k, n, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandUniform(r, -1, 1, m, k)
		b := RandUniform(r, -1, 1, k, n)
		c := RandUniform(r, -1, 1, n, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return AllClose(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := NewRNG(uint64(seed))
		m, n := 1+r.Intn(8), 1+r.Intn(8)
		a := RandNormal(r, 0, 1, m, n)
		return AllClose(a, Transpose(Transpose(a)), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Sub(Add(a,b), b) == a.
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed))
		n := 1 + r.Intn(32)
		a := RandNormal(r, 0, 3, n)
		b := RandNormal(r, 0, 3, n)
		if !AllClose(Add(a, b), Add(b, a), 0) {
			return false
		}
		return AllClose(Sub(Add(a, b), b), a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{1, 4, 2.5}, 3)
	if d := MaxAbsDiff(a, b); d != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
}

func TestAllCloseDifferentShapes(t *testing.T) {
	if AllClose(New(2), New(3), 1) {
		t.Fatal("AllClose must be false for different shapes")
	}
}
