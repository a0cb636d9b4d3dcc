package fleet

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
)

func validationGlobal() []*nn.Param {
	return []*nn.Param{
		nn.NewParam("w", tensor.New(2, 3)),
		nn.NewParam("b", tensor.New(3)),
	}
}

func validUpdate(global []*nn.Param) Update {
	u := Update{Worker: 1, Samples: 4}
	for _, p := range global {
		u.Vecs = append(u.Vecs, p.Value.Clone())
	}
	return u
}

func TestValidateUpdateAccepts(t *testing.T) {
	global := validationGlobal()
	if err := ValidateUpdate(global, validUpdate(global)); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
}

func TestValidateUpdateRejections(t *testing.T) {
	global := validationGlobal()
	cases := []struct {
		name   string
		mutate func(u *Update)
	}{
		{"zero samples", func(u *Update) { u.Samples = 0 }},
		{"negative samples", func(u *Update) { u.Samples = -3 }},
		{"missing tensor", func(u *Update) { u.Vecs = u.Vecs[:1] }},
		{"extra tensor", func(u *Update) { u.Vecs = append(u.Vecs, tensor.New(1)) }},
		{"nil tensor", func(u *Update) { u.Vecs[0] = nil }},
		{"shape mismatch", func(u *Update) { u.Vecs[1] = tensor.New(4) }},
		{"transposed shape", func(u *Update) { u.Vecs[0] = tensor.New(3, 2) }},
		{"NaN value", func(u *Update) { u.Vecs[0].Data()[2] = math.NaN() }},
		{"+Inf value", func(u *Update) { u.Vecs[1].Data()[0] = math.Inf(1) }},
		{"-Inf value", func(u *Update) { u.Vecs[0].Data()[5] = math.Inf(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := validUpdate(global)
			tc.mutate(&u)
			err := ValidateUpdate(global, u)
			if err == nil {
				t.Fatalf("update with %s accepted", tc.name)
			}
			if !errors.Is(err, ErrBadUpdate) {
				t.Fatalf("error does not wrap ErrBadUpdate: %v", err)
			}
		})
	}
}

// Both aggregators must reject a poisoned update via the typed error and
// leave the global parameters untouched.
func TestFoldRejectsPoisonedUpdate(t *testing.T) {
	for _, agg := range []Aggregator{NewFedAvg(), NewGradAllReduce(nil)} {
		t.Run(agg.Name(), func(t *testing.T) {
			global := validationGlobal()
			for _, p := range global {
				p.Value.Fill(0.5)
			}
			before := make([][]float64, len(global))
			for i, p := range global {
				before[i] = append([]float64(nil), p.Value.Data()...)
			}
			good := validUpdate(global)
			bad := validUpdate(global)
			bad.Worker = 2
			bad.Vecs[0].Data()[0] = math.NaN()
			err := agg.Fold(global, []Update{good, bad})
			if !errors.Is(err, ErrBadUpdate) {
				t.Fatalf("fold error = %v, want ErrBadUpdate", err)
			}
			for i, p := range global {
				for j, v := range p.Value.Data() {
					if v != before[i][j] {
						t.Fatalf("global parameter %d mutated at %d by a rejected fold", i, j)
					}
				}
			}
		})
	}
}

// TestValidateUpdateNonFinite pins the finiteness screen bit by bit: every
// NaN and infinity is rejected at either end of a tensor, with the message
// naming the first offender as it always has, and the extremes of the finite
// range pass.
func TestValidateUpdateNonFinite(t *testing.T) {
	global := validationGlobal()
	nanPayload := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	negNaN := math.Float64frombits(0xFFF0_0000_0000_0001) // signalling, sign set
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), nanPayload, negNaN} {
		for _, at := range []int{0, 5} {
			u := validUpdate(global)
			u.Vecs[0].Data()[at] = x
			if at == 0 {
				u.Vecs[0].Data()[5] = math.Inf(1) // a later offender: the message names the first
			}
			err := ValidateUpdate(global, u)
			want := fmt.Sprintf("%v: worker 1: non-finite value %v in parameter %q", ErrBadUpdate, x, "w")
			if err == nil || err.Error() != want {
				t.Fatalf("value %x at %d: got %v, want %q", math.Float64bits(x), at, err, want)
			}
		}
	}
	for _, x := range []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0x1p-1022} {
		u := validUpdate(global)
		u.Vecs[0].Data()[0], u.Vecs[1].Data()[2] = x, x
		if err := ValidateUpdate(global, u); err != nil {
			t.Fatalf("finite value %v rejected: %v", x, err)
		}
	}
}
