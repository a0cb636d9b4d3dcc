package fleet

import (
	"fmt"
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// refFold is the fold both aggregators ran before the chunked kernel: zero
// the destination, then one whole-tensor pass per update — t += alpha·u with
// the sample weight, or for all-reduce over equal shards a plain add and one
// final scaling.
func refFold(dst *tensor.Tensor, updates []Update, k int, allReduce bool) {
	total, equal := 0.0, true
	for _, u := range updates {
		total += float64(u.Samples)
		equal = equal && u.Samples == updates[0].Samples
	}
	dst.Zero()
	if allReduce && equal {
		for _, u := range updates {
			dst.AddInPlace(u.Vecs[k])
		}
		dst.ScaleInPlace(1 / float64(len(updates)))
		return
	}
	for _, u := range updates {
		alpha, d := float64(u.Samples)/total, dst.Data()
		for i, v := range u.Vecs[k].Data() {
			d[i] += alpha * v
		}
	}
}

// TestFoldMatchesReference holds both aggregators' folds to refFold bit for
// bit: 1, 2, 3 and 5 updates, equal and unequal shards, tensors whose
// lengths are not multiples of the kernel's chunk (one long enough to split
// across workers), and values that probe the rounding: −0 everywhere (the
// zeroed accumulator turned −0 products into +0), subnormals, and magnitudes
// far apart.
func TestFoldMatchesReference(t *testing.T) {
	sizes := []int{1, 7, foldChunk - 1, foldChunk + 1, 3*foldChunk + 5, 20011}
	special := []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1.8p-1070, 1e300, -1e-300, 1 + 0x1p-52}
	rng := tensor.NewRNG(41)
	for _, n := range []int{1, 2, 3, 5} {
		for _, samples := range [][]int{{4, 4, 4, 4, 4}, {1, 7, 2, 9, 3}} {
			updates := make([]Update, n)
			for i := range updates {
				updates[i] = Update{Worker: i, Samples: samples[i]}
				for k, size := range sizes {
					v := tensor.New(size)
					d := v.Data()
					for j := range d {
						switch {
						case k == 0 || j%17 == 0:
							d[j] = math.Copysign(0, -1) // −0 in every update
						case j%5 == 0:
							d[j] = special[(i+j)%len(special)]
						default:
							d[j] = rng.Normal(0, 1) * math.Pow(10, float64(j%9-4))
						}
					}
					updates[i].Vecs = append(updates[i].Vecs, v)
				}
			}
			for _, agg := range []Aggregator{NewFedAvg(), NewGradAllReduce(trainer.NewSGD(0.05))} {
				t.Run(fmt.Sprintf("%s/%d-updates/samples-%v", agg.Name(), n, samples[:n]), func(t *testing.T) {
					global := make([]*nn.Param, len(sizes))
					for k, size := range sizes {
						global[k] = nn.NewParam(fmt.Sprintf("p%d", k), tensor.New(size))
					}
					if err := agg.Fold(global, updates); err != nil {
						t.Fatal(err)
					}
					_, allReduce := agg.(*GradAllReduce)
					for k, p := range global {
						got := p.Value
						if allReduce {
							got = p.Grad
						}
						want := tensor.New(sizes[k])
						refFold(want, updates, k, allReduce)
						for j, w := range want.Data() {
							if g := got.Data()[j]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("tensor %d element %d: fold %v (%#x), reference %v (%#x)",
									k, j, g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				})
			}
		}
	}
}
