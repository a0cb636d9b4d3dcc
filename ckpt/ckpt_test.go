package ckpt

import (
	"slices"
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// TestApplyParamsStrict: a checkpoint restores into a model only if they match
// one for one, by name and shape. Any mismatch is an error and copies
// nothing, so a teacher/student mix-up never leaves half-restored weights.
func TestApplyParamsStrict(t *testing.T) {
	stored := func(name string, shape ...int) NamedTensor {
		return NamedTensor{Name: name, Tensor: tensor.Full(-1, shape...)}
	}
	model := func(extra ...*nn.Param) []*nn.Param {
		return append([]*nn.Param{
			nn.NewParam("conv.w", tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)),
			nn.NewParam("fc.w", tensor.FromSlice([]float64{7, 8, 9}, 3)),
		}, extra...)
	}
	for _, c := range []struct {
		name   string
		stored []NamedTensor
		params []*nn.Param
		ok     bool
	}{
		{"match", []NamedTensor{stored("conv.w", 2, 3), stored("fc.w", 3)}, model(), true},
		{"shape mismatch", []NamedTensor{stored("conv.w", 3, 2), stored("fc.w", 3)}, model(), false},
		{"missing name", []NamedTensor{stored("conv.w", 2, 3)}, model(), false},
		{"extra tensor", []NamedTensor{stored("conv.w", 2, 3), stored("fc.w", 3), stored("fc.b", 1)}, model(), false},
		{"duplicate stored name", []NamedTensor{stored("conv.w", 2, 3), stored("conv.w", 2, 3), stored("fc.w", 3)}, model(), false},
		{"duplicate parameter name", []NamedTensor{stored("conv.w", 2, 3), stored("fc.w", 3)},
			model(nn.NewParam("fc.w", tensor.FromSlice([]float64{10, 11, 12}, 3))), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := make([][]float64, len(c.params))
			for i, p := range c.params {
				before[i] = slices.Clone(p.Value.Data())
			}
			err := (&Session{Params: c.stored}).ApplyParams(c.params)
			if c.ok {
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range c.params {
					if !tensor.AllClose(p.Value, tensor.Full(-1, p.Value.Shape()...), 0) {
						t.Fatalf("parameter %q not restored: %v", p.Name, p.Value.Data())
					}
				}
				return
			}
			if err == nil {
				t.Fatal("mismatched checkpoint accepted")
			}
			for i, p := range c.params {
				if !slices.Equal(p.Value.Data(), before[i]) {
					t.Fatalf("rejected restore wrote parameter %q: %v, was %v", p.Name, p.Value.Data(), before[i])
				}
			}
		})
	}
}
