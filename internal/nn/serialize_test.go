package nn

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

func TestParamBytes(t *testing.T) {
	rng := tensor.NewRNG(13)
	l := NewLinear("fc", 10, 5, true, rng)
	if got := ParamBytes([]Layer{l}); got != int64(10*5+5)*8 {
		t.Fatalf("ParamBytes = %d", got)
	}
}
