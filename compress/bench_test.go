package compress

import "testing"

// BenchmarkUpdateCompress measures one encode+decode round trip per codec on
// a demo-model-sized update, reporting the encoded wire bytes per update and
// the compression ratio alongside the time.
func BenchmarkUpdateCompress(b *testing.B) {
	for _, spec := range []string{
		"topk:1+fp64+raw",
		"topk:1+fp64+deflate",
		"fp16+deflate",
		"int8+deflate",
		"topk:0.25+int8+deflate",
		"topk:0.05+int8+deflate",
	} {
		b.Run(spec, func(b *testing.B) {
			c, err := NewCompressor(specOrDie(b, spec))
			if err != nil {
				b.Fatal(err)
			}
			vecs := testVecs(31)
			enc, err := c.Encode(vecs)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(enc.RawBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := c.Encode(vecs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Decode(e.Data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc.Data)), "wire-B/update")
			b.ReportMetric(float64(enc.RawBytes)/float64(len(enc.Data)), "ratio")
		})
	}
}
