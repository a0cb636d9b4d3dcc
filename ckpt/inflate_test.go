package ckpt_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"testing"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// bitWriter writes a DEFLATE stream bit by bit, least significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint16, n uint8) {
	w.put(uint64(bits.Reverse16(c)>>(16-n)), uint(n))
}

// align pads to a byte boundary, as a stored block's header requires.
func (w *bitWriter) align() {
	if w.n > 0 {
		w.put(0, 8-w.n)
	}
}

func (w *bitWriter) bytes() []byte {
	w.align()
	return w.buf
}

// canonical returns the canonical Huffman codes for the lengths.
func canonical(lengths []uint8) []uint16 {
	var count [16]int
	for _, n := range lengths {
		count[n]++
	}
	count[0] = 0
	var next [16]uint16
	code := uint16(0)
	for n := 1; n < 16; n++ {
		code = (code + uint16(count[n-1])) << 1
		next[n] = code
	}
	codes := make([]uint16, len(lengths))
	for s, n := range lengths {
		if n != 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// block is a Huffman block under construction: its codes and a writer.
type block struct {
	w               *bitWriter
	litLen, distLen []uint8
	lit, dist       []uint16
}

// fixedBlock starts a fixed-Huffman block.
func fixedBlock(w *bitWriter, final bool) *block {
	lit := make([]uint8, 288)
	for i := range lit {
		switch {
		case i < 144:
			lit[i] = 8
		case i < 256:
			lit[i] = 9
		case i < 280:
			lit[i] = 7
		default:
			lit[i] = 8
		}
	}
	dist := make([]uint8, 32)
	for i := range dist {
		dist[i] = 5
	}
	w.put(b2u(final), 1)
	w.put(1, 2)
	return &block{w: w, litLen: lit, distLen: dist, lit: canonical(lit), dist: canonical(dist)}
}

// dynamicBlock starts a dynamic block with the given code lengths. The
// header's code-length code gives each of the lengths 0..15 a 4-bit code
// and uses no repeats, so any lengths can be written, valid or not.
func dynamicBlock(w *bitWriter, final bool, litLen, distLen []uint8) *block {
	w.put(b2u(final), 1)
	w.put(2, 2)
	w.put(uint64(len(litLen)-257), 5)
	w.put(uint64(len(distLen)-1), 5)
	w.put(19-4, 4)
	order := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	for _, s := range order {
		if s < 16 {
			w.put(4, 3)
		} else {
			w.put(0, 3)
		}
	}
	for _, n := range append(append([]uint8{}, litLen...), distLen...) {
		w.code(uint16(n), 4)
	}
	return &block{w: w, litLen: litLen, distLen: distLen, lit: canonical(litLen), dist: canonical(distLen)}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (b *block) literal(c byte) { b.w.code(b.lit[c], b.litLen[c]) }
func (b *block) end()           { b.w.code(b.lit[256], b.litLen[256]) }

// match writes a length/distance pair by symbol and extra bits.
func (b *block) match(lenSym int, lenExtra uint64, lenBits uint, distSym int, distExtra uint64, distBits uint) {
	b.w.code(b.lit[lenSym], b.litLen[lenSym])
	b.w.put(lenExtra, lenBits)
	b.w.code(b.dist[distSym], b.distLen[distSym])
	b.w.put(distExtra, distBits)
}

// stored writes a stored block holding data.
func stored(w *bitWriter, final bool, data []byte) {
	w.put(b2u(final), 1)
	w.put(0, 2)
	w.align()
	w.put(uint64(len(data)), 16)
	w.put(uint64(^uint16(len(data))), 16)
	for _, c := range data {
		w.put(uint64(c), 8)
	}
}

// deflateFrame wraps a DEFLATE stream in a frame declaring rawLen bytes.
func deflateFrame(enc []byte, rawLen int) []byte {
	fh := make([]byte, ckpt.FrameHeaderBytes, ckpt.FrameHeaderBytes+len(enc))
	binary.LittleEndian.PutUint32(fh[0:], 20)
	binary.LittleEndian.PutUint32(fh[4:], ckpt.StyleDeflate)
	binary.LittleEndian.PutUint64(fh[8:], uint64(len(enc)))
	binary.LittleEndian.PutUint64(fh[16:], uint64(rawLen))
	binary.LittleEndian.PutUint32(fh[24:], crc32.ChecksumIEEE(enc))
	return append(fh, enc...)
}

// stdInflate is the reference: compress/flate's reader over the stream, up
// to limit output bytes.
func stdInflate(enc []byte, limit int64) ([]byte, error) {
	var out bytes.Buffer
	_, err := io.Copy(&out, io.LimitReader(flate.NewReader(bytes.NewReader(enc)), limit))
	return out.Bytes(), err
}

// inflateAgrees decodes the stream through DecodeFrame and a FrameReader,
// with the raw length compress/flate produces, that length ±1 and one far
// beyond it (room for whatever a corrupt stream would write next), and
// fails unless both accept and reject exactly what compress/flate does and
// produce its bytes. It reports whether the reference accepted the stream.
func inflateAgrees(t *testing.T, name string, enc []byte) bool {
	t.Helper()
	want, wantErr := stdInflate(enc, 1<<26)
	for _, delta := range []int{0, -1, 1, 1 << 12} {
		rawLen := len(want) + delta
		if rawLen < 0 {
			continue
		}
		accept := wantErr == nil && delta == 0
		frame := deflateFrame(enc, rawLen)
		f, n, err := ckpt.DecodeFrame(frame, 0)
		g, m, rerr := ckpt.NewFrameReader(bytes.NewReader(frame), 0).Next()
		for _, r := range []struct {
			how string
			f   ckpt.Frame
			n   int
			err error
		}{{"DecodeFrame", f, n, err}, {"FrameReader", g, m, rerr}} {
			if accept {
				if r.err != nil {
					t.Fatalf("%s: %s rejects what compress/flate accepts (raw %d): %v", name, r.how, rawLen, r.err)
				}
				if !bytes.Equal(r.f.Payload, want) || r.n != len(frame) {
					t.Fatalf("%s: %s decodes %d bytes (consumed %d), compress/flate %d", name, r.how, len(r.f.Payload), r.n, len(want))
				}
				continue
			}
			if !errors.Is(r.err, ckpt.ErrCorrupt) {
				t.Fatalf("%s: %s with raw length %d (reference %d, %v): got %v, want ErrCorrupt",
					name, r.how, rawLen, len(want), wantErr, r.err)
			}
		}
	}
	return wantErr == nil
}

// TestInflateMatchesStdlib holds the package's DEFLATE decoder to
// compress/flate's reader on streams that reach every block type and every
// rule: the same bytes out, the same streams accepted.
func TestInflateMatchesStdlib(t *testing.T) {
	alpha := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		return b
	}
	// Lengths for a dynamic block of n ≥ 286 literal/length codes: literals
	// 'a'..'d', end of block and the length symbols 257 (3) and 285 (258),
	// a complete code.
	litLens := func(n int) []uint8 {
		l := make([]uint8, n)
		l['a'], l['b'], l['c'], l['d'] = 2, 3, 3, 3
		l[256], l[257], l[285] = 3, 3, 3
		return l
	}
	cases := []struct {
		name   string
		accept bool
		enc    func() []byte
	}{
		{"stored", true, func() []byte {
			w := &bitWriter{}
			stored(w, true, []byte("hello, stored block"))
			return w.bytes()
		}},
		{"stored empty then fixed", true, func() []byte {
			w := &bitWriter{}
			stored(w, false, nil)
			b := fixedBlock(w, true)
			b.literal('x')
			b.end()
			return w.bytes()
		}},
		{"stored with a bad complement", false, func() []byte {
			w := &bitWriter{}
			w.put(1, 3)
			w.align()
			w.put(3, 16)
			w.put(3, 16)
			w.put(0x616161, 24)
			return w.bytes()
		}},
		{"stored cut short", false, func() []byte {
			w := &bitWriter{}
			stored(w, true, []byte("truncated"))
			return w.bytes()[:8]
		}},
		{"fixed overlapping match at distance 1", true, func() []byte {
			w := &bitWriter{}
			b := fixedBlock(w, true)
			b.literal('z')
			b.match(285, 0, 0, 0, 0, 0) // length 258, distance 1
			b.match(257, 0, 0, 0, 0, 0) // length 3, distance 1
			b.end()
			return w.bytes()
		}},
		{"fixed overlapping match at distance 3", true, func() []byte {
			w := &bitWriter{}
			b := fixedBlock(w, true)
			b.literal('a')
			b.literal('b')
			b.literal('c')
			b.match(270, 1, 2, 2, 0, 0) // length 24, distance 3
			b.end()
			return w.bytes()
		}},
		{"length 258 as 284 plus 31", true, func() []byte {
			w := &bitWriter{}
			b := fixedBlock(w, true)
			b.literal('q')
			b.match(284, 31, 5, 0, 0, 0)
			b.end()
			return w.bytes()
		}},
		{"match at distance 32768", true, func() []byte {
			w := &bitWriter{}
			stored(w, false, alpha(32768))
			b := fixedBlock(w, true)
			b.match(285, 0, 0, 29, 32768-24577, 13)
			b.end()
			return w.bytes()
		}},
		{"distance beyond the output", false, func() []byte {
			w := &bitWriter{}
			b := fixedBlock(w, true)
			b.literal('a')
			b.match(257, 0, 0, 1, 0, 0) // distance 2 after one byte
			b.end()
			return w.bytes()
		}},
		{"fixed distance symbol 30", false, func() []byte {
			w := &bitWriter{}
			b := fixedBlock(w, true)
			b.literal('a')
			b.match(257, 0, 0, 30, 0, 0)
			b.end()
			return w.bytes()
		}},
		{"fixed length symbol 286", false, func() []byte {
			w := &bitWriter{}
			b := fixedBlock(w, true)
			b.literal('a')
			b.w.code(b.lit[286], b.litLen[286])
			return w.bytes()
		}},
		{"reserved block type", false, func() []byte {
			w := &bitWriter{}
			w.put(1|3<<1, 3)
			w.put(0, 16)
			return w.bytes()
		}},
		{"no final block", false, func() []byte {
			w := &bitWriter{}
			stored(w, false, []byte("not final"))
			return w.bytes()
		}},
		{"dynamic", true, func() []byte {
			w := &bitWriter{}
			b := dynamicBlock(w, true, litLens(286), []uint8{1, 1})
			for _, c := range []byte("abcdabca") {
				b.literal(c)
			}
			b.match(285, 0, 0, 0, 0, 0)
			b.match(257, 0, 0, 1, 0, 0)
			b.end()
			return w.bytes()
		}},
		{"dynamic after fixed, then stored", true, func() []byte {
			w := &bitWriter{}
			f := fixedBlock(w, false)
			f.literal('0')
			f.end()
			b := dynamicBlock(w, false, litLens(286), []uint8{1, 1})
			b.literal('d')
			b.match(257, 0, 0, 1, 0, 0)
			b.end()
			stored(w, true, []byte("tail"))
			return w.bytes()
		}},
		{"incomplete literal code", false, func() []byte {
			w := &bitWriter{}
			l := litLens(286)
			l['d'] = 0 // Kraft sum 7/8
			b := dynamicBlock(w, true, l, []uint8{1, 1})
			b.literal('a')
			b.end()
			return w.bytes()
		}},
		{"oversubscribed literal code", false, func() []byte {
			w := &bitWriter{}
			l := litLens(286)
			l['e'] = 2
			b := dynamicBlock(w, true, l, []uint8{1, 1})
			b.literal('a')
			b.end()
			return w.bytes()
		}},
		{"single distance code of length 1", true, func() []byte {
			w := &bitWriter{}
			b := dynamicBlock(w, true, litLens(286), []uint8{1})
			b.literal('a')
			b.match(285, 0, 0, 0, 0, 0)
			b.end()
			return w.bytes()
		}},
		{"single distance code, unused half taken", false, func() []byte {
			w := &bitWriter{}
			b := dynamicBlock(w, true, litLens(286), []uint8{1})
			b.literal('a')
			b.w.code(b.lit[257], b.litLen[257])
			b.w.put(1, 1) // the code the single-code tree leaves invalid
			b.end()
			return w.bytes()
		}},
		{"empty distance code, literals only", true, func() []byte {
			w := &bitWriter{}
			b := dynamicBlock(w, true, litLens(286), []uint8{0})
			b.literal('c')
			b.end()
			return w.bytes()
		}},
		{"long literal codes", true, func() []byte {
			// A staircase of lengths 1..14 plus two 15-bit codes is
			// complete, and its long codes go through the link tables.
			l := make([]uint8, 257)
			for i := 0; i < 14; i++ {
				l['a'+i] = uint8(i + 1)
			}
			l['z'], l[256] = 15, 15
			w := &bitWriter{}
			b := dynamicBlock(w, true, l, []uint8{0})
			for _, c := range []byte("zabcnmz") {
				b.literal(c)
			}
			b.end()
			return w.bytes()
		}},
		{"HLIT beyond 286", false, func() []byte {
			w := &bitWriter{}
			dynamicBlock(w, true, litLens(287), []uint8{1, 1}).end()
			return w.bytes()
		}},
		{"HDIST beyond 30", false, func() []byte {
			w := &bitWriter{}
			d := make([]uint8, 31)
			d[0], d[1] = 1, 1
			dynamicBlock(w, true, litLens(286), d).end()
			return w.bytes()
		}},
		{"repeat with no previous length", false, func() []byte {
			w := &bitWriter{}
			w.put(1|2<<1, 3)
			w.put(0, 5)
			w.put(0, 5)
			w.put(0, 4) // HCLEN 4: symbols 16, 17, 18, 0
			for _, n := range []uint64{1, 0, 0, 1} {
				w.put(n, 3)
			}
			w.code(1, 1) // symbol 0 is code 0, 16 is code 1: send 16 first
			w.put(3, 2)
			return w.bytes()
		}},
	}
	for _, tc := range cases {
		if got := inflateAgrees(t, tc.name, tc.enc()); got != tc.accept {
			t.Errorf("%s: compress/flate accepts = %v, the case expects %v", tc.name, got, tc.accept)
		}
	}

	// Streams compress/flate writes, at every level, and every truncation of
	// a short one.
	rng := tensor.NewRNG(5)
	data := make([]byte, 200_000)
	for i := range data {
		if i%4096 < 2048 {
			data[i] = byte(rng.Intn(256))
		} else {
			data[i] = byte('a' + i%7)
		}
	}
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
		var b bytes.Buffer
		fw, _ := flate.NewWriter(&b, level)
		fw.Write(data)
		fw.Close()
		if !inflateAgrees(t, "compress/flate output", b.Bytes()) {
			t.Fatalf("level %d: the reference rejects its own output", level)
		}
	}
	var short bytes.Buffer
	fw, _ := flate.NewWriter(&short, flate.BestSpeed)
	fw.Write(data[2040:2200])
	fw.Close()
	for cut := 0; cut < short.Len(); cut++ {
		inflateAgrees(t, "truncated", short.Bytes()[:cut])
	}

	// A blob of every spec BenchmarkUpdateCompress times.
	vecs := []*tensor.Tensor{tensor.New(64, 48), tensor.New(48), tensor.New(3, 3, 8, 8)}
	for _, v := range vecs {
		for j := range v.Data() {
			v.Data()[j] = rng.Normal(0, 1)
		}
	}
	for _, s := range []string{
		"topk:1+fp64+raw",
		"topk:1+fp64+deflate",
		"fp16+deflate",
		"int8+deflate",
		"topk:0.25+int8+deflate",
		"topk:0.05+int8+deflate",
	} {
		spec, err := compress.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compress.NewCompressor(spec)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.Encode(vecs)
		if err != nil {
			t.Fatal(err)
		}
		blob := enc.Data
		style := binary.LittleEndian.Uint32(blob[4:])
		f, _, err := ckpt.DecodeFrame(blob, 0)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if style == ckpt.StyleDeflate {
			if !inflateAgrees(t, s, blob[ckpt.FrameHeaderBytes:]) {
				t.Fatalf("%s: the reference rejects an encoded update", s)
			}
			continue
		}
		if !bytes.Equal(f.Payload, blob[ckpt.FrameHeaderBytes:]) {
			t.Fatalf("%s: raw frame payload differs from its bytes", s)
		}
	}
}

// FuzzInflate is the decoder's own differential target. A frame's CRC stops
// almost every mutation FuzzFrameReader makes before it reaches the
// decoder; here the fuzzer's bytes are the DEFLATE stream itself.
func FuzzInflate(f *testing.F) {
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.BestCompression} {
		var b bytes.Buffer
		fw, _ := flate.NewWriter(&b, level)
		fw.Write([]byte("abracadabra, abracadabra; the quick brown fox jumps over the lazy dog 0123456789"))
		fw.Close()
		f.Add(b.Bytes())
	}
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, enc []byte) {
		inflateAgrees(t, "fuzz", enc)
	})
}
