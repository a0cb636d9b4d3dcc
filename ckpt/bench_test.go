package ckpt

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// benchSession builds a training-session-sized checkpoint: ~1.6 MB of
// parameters across 24 tensors plus Adam moments for each, comparable to
// the small edge student with optimizer state.
func benchSession() *Session {
	rng := tensor.NewRNG(3)
	s := &Session{Kind: "trainer", LibraryVersion: LibraryVersion, Epoch: 2, Step: 5, Seed: 9}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("layer%02d.w", i)
		t := tensor.RandNormal(rng, 0, 0.1, 16, 16, 4, 8)
		s.Params = append(s.Params, NamedTensor{Name: name, Tensor: t})
		s.Opt.Slots = append(s.Opt.Slots,
			OptSlot{Param: name, Slot: "m", Data: make([]float64, t.Size())},
			OptSlot{Param: name, Slot: "v", Data: make([]float64, t.Size())},
		)
	}
	s.Opt.Name = "adam"
	s.Opt.Step = 40
	return s
}

// BenchmarkCheckpointSave measures one durable save — encode, an in-place
// write of the oldest slot, one fsync.
func BenchmarkCheckpointSave(b *testing.B) {
	s := benchSession()
	d, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	enc, err := Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Save(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore measures one full load of the newest slot —
// read, CRC verification, decode.
func BenchmarkCheckpointRestore(b *testing.B) {
	s := benchSession()
	d, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.Save(s); err != nil {
		b.Fatal(err)
	}
	enc, err := Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Load(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRead measures the receive path of one connection: a
// FrameReader taking frame after frame off a stream into the buffers it
// keeps. The two cases are the fleet benchmark's two directions — a 5.6 MB
// raw round directive, and 0.7 MB of int8 update body that DEFLATEs to about
// 0.6 MB.
func BenchmarkFrameRead(b *testing.B) {
	rng := tensor.NewRNG(7)
	noise := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(int(128 + 40*rng.Normal(0, 1))) // a bell of byte values, as quantized gradients are
		}
		return p
	}
	for _, c := range []struct {
		name    string
		payload []byte
		style   uint32
	}{
		{"raw-5.6MB", noise(5600 << 10), StyleRaw},
		{"deflate-0.7MB", noise(700 << 10), StyleDeflate},
	} {
		b.Run(c.name, func(b *testing.B) {
			var one bytes.Buffer
			if _, err := WriteFrame(&one, Frame{Type: 19, Payload: c.payload}, c.style); err != nil {
				b.Fatal(err)
			}
			src := &repeatReader{frame: one.Bytes()}
			fr := NewFrameReader(src, 0)
			b.SetBytes(int64(one.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _, err := fr.Next()
				if err != nil {
					b.Fatal(err)
				}
				if len(f.Payload) != len(c.payload) {
					b.Fatalf("%d payload bytes", len(f.Payload))
				}
			}
		})
	}
}

// repeatReader is an endless stream of one encoded frame.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}
