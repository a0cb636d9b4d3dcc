package fleet

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// benchRound is the fleet benchmark's model — ResNet-18 at four stages and
// base width 16, 62 parameter tensors and 700 404 elements — and n updates
// of it: parameter values (FedAvg) with each worker's noise, or the same
// noise as gradients (all-reduce).
func benchRound(b *testing.B, n int) ([]*nn.Param, []Update) {
	net, err := resnet.BuildSmall(resnet.SmallConfig{
		Variant: resnet.ResNet18, InputChannels: 1, NumClasses: 4, BaseWidth: 16, Stages: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	global := net.Params()
	rng := tensor.NewRNG(2)
	updates := make([]Update, n)
	for i := range updates {
		updates[i] = Update{Worker: i, Samples: 2}
		for _, p := range global {
			v := p.Value.Clone()
			for j, x := range v.Data() {
				v.Data()[j] = x + rng.Normal(0, 1e-3)
			}
			updates[i].Vecs = append(updates[i].Vecs, v)
		}
	}
	return global, updates
}

func paramBytes(global []*nn.Param) (n int64) {
	for _, p := range global {
		n += 8 * int64(p.Value.Size())
	}
	return n
}

// BenchmarkValidateUpdate times the screen every update passes before it is
// folded (once when it is staged, once inside Fold).
func BenchmarkValidateUpdate(b *testing.B) {
	global, updates := benchRound(b, 1)
	b.SetBytes(paramBytes(global))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ValidateUpdate(global, updates[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFold times one fold of two updates, as the fleet benchmark's two
// workers send them: FedAvg, and all-reduce with equal and unequal shards
// (its global optimizer step included).
func BenchmarkFold(b *testing.B) {
	for _, tc := range []struct {
		name    string
		agg     Aggregator
		samples []int
	}{
		{"fedavg", NewFedAvg(), []int{2, 2}},
		{"allreduce-equal", NewGradAllReduce(trainer.NewSGD(0.05)), []int{2, 2}},
		{"allreduce-unequal", NewGradAllReduce(trainer.NewSGD(0.05)), []int{2, 3}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			global, updates := benchRound(b, len(tc.samples))
			for i, s := range tc.samples {
				updates[i].Samples = s
			}
			b.SetBytes(paramBytes(global))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.agg.Fold(global, updates); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
