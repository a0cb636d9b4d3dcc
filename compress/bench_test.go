package compress

import (
	"testing"

	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// benchUpdate is a FedAvg update of the fleet benchmark's model — the
// parameters of ResNet-18 at four stages and base width 16, 62 tensors and
// 700 404 elements — with a little noise, as after a round of local training.
func benchUpdate(b *testing.B) []*tensor.Tensor {
	net, err := resnet.BuildSmall(resnet.SmallConfig{
		Variant: resnet.ResNet18, InputChannels: 1, NumClasses: 4, BaseWidth: 16, Stages: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	var vecs []*tensor.Tensor
	for _, p := range net.Params() {
		v := p.Value.Clone()
		for j, x := range v.Data() {
			v.Data()[j] = x + rng.Normal(0, 1e-3)
		}
		vecs = append(vecs, v)
	}
	return vecs
}

// BenchmarkUpdateCompress times Encode and Decode separately per codec on
// the fleet benchmark's update, reporting the encoded wire bytes per update
// and the compression ratio alongside the time.
func BenchmarkUpdateCompress(b *testing.B) {
	vecs := benchUpdate(b)
	for _, spec := range []string{
		"topk:1+fp64+raw",
		"topk:1+fp64+deflate",
		"fp16+deflate",
		"int8+deflate",
		"topk:0.25+int8+deflate",
		"topk:0.05+int8+deflate",
	} {
		c, err := NewCompressor(specOrDie(b, spec))
		if err != nil {
			b.Fatal(err)
		}
		enc, err := c.Encode(vecs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec+"/encode", func(b *testing.B) {
			b.SetBytes(enc.RawBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(vecs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc.Data)), "wire-B/update")
			b.ReportMetric(float64(enc.RawBytes)/float64(len(enc.Data)), "ratio")
		})
		b.Run(spec+"/decode", func(b *testing.B) {
			b.SetBytes(enc.RawBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(enc.Data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
