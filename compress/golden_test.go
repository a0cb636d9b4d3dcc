package compress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// goldenVecs is round r's update for TestCodecGolden: two ordinary tensors,
// one holding a negative zero, one holding a NaN (which poisons its int8
// grid), one constant (scale 0) and one with a single element.
func goldenVecs(r int) []*tensor.Tensor {
	vecs := testVecs(uint64(40 + r))[:2]
	negZero := tensor.New(9)
	for j := range negZero.Data() {
		negZero.Data()[j] = float64(j-4) * 0.125 * float64(r+1)
	}
	negZero.Data()[4] = math.Copysign(0, -1)
	poisoned := tensor.New(2, 3)
	for j := range poisoned.Data() {
		poisoned.Data()[j] = float64(j) - 1.5
	}
	poisoned.Data()[r] = math.NaN()
	constant := tensor.New(7)
	for j := range constant.Data() {
		constant.Data()[j] = 0.25
	}
	single := tensor.New(1)
	single.Data()[0] = -3.5 + float64(r)
	return append(vecs, negZero, poisoned, constant, single)
}

func hashFloats(h hash.Hash, vals []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(vals)))
	h.Write(b[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestCodecGolden pins the codec to the bits it produced before Encode
// worked in the residual buffer and Decode dequantized in place: over three
// successive rounds of one Compressor, the sha256 of every encoded blob, of
// the residual after every round, and of every tensor Decode rebuilds from
// those blobs. The hashes were generated by running this test at the parent
// commit (6c9edbe), where it printed them.
func TestCodecGolden(t *testing.T) {
	golden := map[string][3]string{ // spec -> blobs, residuals, decoded tensors
		"int8+deflate": {
			"8d8af0278e3cd5263a80b66193799072ac0fded8f8e48ee9cc2438358e9a3473",
			"7c4208d5f795ae880dee9f937aca3c9265685e7f0f784c4db0886ab4fcfeb3c7",
			"fa72996741fdbaa50997150604239014f35b24bcced5bda4d927857e4453c9ae",
		},
		"topk:0.1+int8": {
			"013be68c3047a140d87e98c6043ddb32078a4ac614b902b06376e581112c21d3",
			"b8de2e154a8284151907a7bf7fb1e5d5093832307935d793f7d8de88502ca3f6",
			"27c22b38653392368f79b908d7fa40a118a5748abb63213eba7d8aa810a9625f",
		},
		"topk:0.25+fp16+deflate": {
			"53ec803add9677a1c78edfcc7ecc55683c9053b711a5f05447697f4ba0cdad2e",
			"fa9ff7a53f3f8651e08b1d57a0cea977f329977915b5e4a0b862fe44d8b1f4e7",
			"8597b7398783aca923c4c538a95a92e98b1b68713d251a538ba47f69f791478f",
		},
		"topk:1+fp64": {
			"420972eb00a00476416754cc9a9dd51089ec04904747ad910dcd577ec360a78e",
			"81c611f35bff79491538b2f7cf201c7597a661a5c549633541c62bdc8af1613f",
			"9b7b891df62ba92c858289abebcdeeeed0bf41b9e6d0faac7924e7494919ea19",
		},
	}
	for spec, want := range golden {
		c, err := NewCompressor(specOrDie(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		blobs, residuals, decoded := sha256.New(), sha256.New(), sha256.New()
		for r := 0; r < 3; r++ {
			vecs := goldenVecs(r)
			enc, err := c.Encode(vecs)
			if err != nil {
				t.Fatalf("%s round %d: %v", spec, r, err)
			}
			hashFloats(blobs, []float64{float64(len(enc.Data))})
			blobs.Write(enc.Data)
			for i := range vecs {
				if c.residual == nil { // lossless: no residual at all
					hashFloats(residuals, nil)
				} else {
					hashFloats(residuals, c.residual[i])
				}
			}
			dec, err := Decode(enc.Data)
			if err != nil {
				t.Fatalf("%s round %d: %v", spec, r, err)
			}
			for _, v := range dec.Vecs {
				shape := make([]float64, v.Rank())
				for d := range shape {
					shape[d] = float64(v.Dim(d))
				}
				hashFloats(decoded, shape)
				hashFloats(decoded, v.Data())
			}
		}
		got := [3]string{
			hex.EncodeToString(blobs.Sum(nil)),
			hex.EncodeToString(residuals.Sum(nil)),
			hex.EncodeToString(decoded.Sum(nil)),
		}
		if got != want {
			t.Errorf("%q: blobs, residuals, decoded hash to\n\t%q,\n\t%q,\n\t%q,\nwant\n\t%q,\n\t%q,\n\t%q",
				spec, got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
}
