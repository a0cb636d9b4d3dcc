package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"testing"

	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// sampleSession builds a session exercising every frame type and value kind:
// multiple parameters, layer state, a stateful optimizer, RNG words and
// fleet workers, with negative/NaN/denormal floats in the payloads.
func sampleSession() *Session {
	rng := tensor.NewRNG(7)
	return &Session{
		Kind:           "trainer",
		LibraryVersion: LibraryVersion,
		Epoch:          3,
		Step:           17,
		Round:          2,
		BatchSize:      4,
		Seed:           42,
		RNG:            []uint64{1, 2, 3, 4, 0, math.Float64bits(0.5)},
		Params: []NamedTensor{
			{Name: "stem.w", Tensor: tensor.RandNormal(rng, 0, 1, 4, 3, 3, 3)},
			{Name: "stem.b", Tensor: tensor.FromSlice([]float64{0, -1.5, math.Pi, 1e-310}, 4)},
			{Name: "head.w", Tensor: tensor.RandUniform(rng, -2, 2, 5, 16)},
		},
		LayerState: []NamedTensor{
			{Name: "stem.bn.running_mean", Tensor: tensor.FromSlice([]float64{1, 2, 3, 4}, 4)},
			{Name: "stem.bn.running_var", Tensor: tensor.FromSlice([]float64{0.1, 0.2, 0.3, 0.4}, 4)},
		},
		Opt: OptimizerState{
			Name: "adam",
			Step: 117,
			Slots: []OptSlot{
				{Param: "stem.w", Slot: "m", Data: []float64{1, -2, 3}},
				{Param: "stem.w", Slot: "v", Data: []float64{0.5, 0.25, 0.125}},
			},
		},
		Workers: []WorkerState{
			{Index: 0, Name: "w0-waggle", Rounds: 5, Samples: 60,
				Opt: OptimizerState{Name: "momentum", Slots: []OptSlot{
					{Param: "stem.w", Slot: "velocity", Data: []float64{-0.5, 0, 2}},
				}}},
			{Index: 2, Name: "w2-rpi", Rounds: 4, Samples: 44,
				Opt: OptimizerState{Name: "sgd"}},
		},
	}
}

// sessionsEqual compares the public content of two sessions.
func sessionsEqual(t *testing.T, want, got *Session) {
	t.Helper()
	if want.Kind != got.Kind || want.LibraryVersion != got.LibraryVersion ||
		want.Epoch != got.Epoch || want.Step != got.Step || want.Round != got.Round ||
		want.BatchSize != got.BatchSize || want.Seed != got.Seed {
		t.Fatalf("scalar fields differ: want %+v scalars, got %+v", want, got)
	}
	if !reflect.DeepEqual(want.RNG, got.RNG) {
		t.Fatalf("RNG state differs: want %v, got %v", want.RNG, got.RNG)
	}
	compareTensors := func(kind string, a, b []NamedTensor) {
		if len(a) != len(b) {
			t.Fatalf("%s count: want %d, got %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name {
				t.Fatalf("%s[%d] name: want %q, got %q", kind, i, a[i].Name, b[i].Name)
			}
			if !a[i].Tensor.SameShape(b[i].Tensor) {
				t.Fatalf("%s[%d] shape: want %v, got %v", kind, i, a[i].Tensor.Shape(), b[i].Tensor.Shape())
			}
			aw, bw := a[i].Tensor.Data(), b[i].Tensor.Data()
			for j := range aw {
				if math.Float64bits(aw[j]) != math.Float64bits(bw[j]) {
					t.Fatalf("%s[%d] %q element %d: want %v, got %v (bit-level)", kind, i, a[i].Name, j, aw[j], bw[j])
				}
			}
		}
	}
	compareTensors("param", want.Params, got.Params)
	compareTensors("layer state", want.LayerState, got.LayerState)
	if !reflect.DeepEqual(want.Opt, got.Opt) {
		t.Fatalf("optimizer state differs:\nwant %+v\ngot  %+v", want.Opt, got.Opt)
	}
	if !reflect.DeepEqual(want.Workers, got.Workers) {
		t.Fatalf("worker state differs:\nwant %+v\ngot  %+v", want.Workers, got.Workers)
	}
}

func TestRoundTripRaw(t *testing.T) {
	want := sampleSession()
	b, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// Clear decode-only bookkeeping before comparing.
	sessionsEqual(t, want, got)
}

// writeStyle is Write in the given frame style. The library writes raw
// checkpoints only; files written by earlier versions carry DEFLATE frames
// and the reader goes on accepting them, so the tests build their DEFLATE
// inputs frame by frame through WriteFrame, which lays a frame out exactly
// as a checkpoint file holds it.
func writeStyle(w io.Writer, s *Session, style uint32) error {
	var head [headerBytes]byte
	copy(head[:8], Magic)
	binary.LittleEndian.PutUint32(head[8:], FormatVersion)
	binary.LittleEndian.PutUint32(head[12:], uint32(frameCount(s)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	for i := 0; i < frameCount(s); i++ {
		var b bytes.Buffer
		typ, err := putFrame(s, i, &b)
		if err != nil {
			return err
		}
		if _, err := WriteFrame(w, Frame{Type: typ, Payload: b.Bytes()}, style); err != nil {
			return err
		}
	}
	return nil
}

// encodeStyle is Encode in the given frame style.
func encodeStyle(s *Session, style uint32) ([]byte, error) {
	var b bytes.Buffer
	if err := writeStyle(&b, s, style); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func TestRoundTripCompressed(t *testing.T) {
	// What the writer of DEFLATE-framed checkpoints produced for the sample
	// session before it was removed: the file an earlier version left behind.
	const golden = "465360e3bf3e2c3f8cef612e20568acc3a89d0b4d1e12322cd7cf1245be6dedd"
	want := sampleSession()
	b, err := encodeStyle(want, StyleDeflate)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != golden {
		t.Fatalf("DEFLATE-framed sample session hashes to %x, want %s", sum, golden)
	}
	braw, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode raw: %v", err)
	}
	if bytes.Equal(b, braw) {
		t.Fatalf("compressed and raw encodings are identical (%d bytes); compression did not engage", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sessionsEqual(t, want, got)
}

func TestRoundTripMinimalSession(t *testing.T) {
	want := &Session{Kind: "trainer"}
	b, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sessionsEqual(t, want, got)
}

// TestStreamingMatchesInMemory pins the format contract that the streaming
// io.Writer/io.Reader mode and the in-memory mode produce and consume
// bit-identical bytes.
func TestStreamingMatchesInMemory(t *testing.T) {
	s := sampleSession()
	for _, style := range []struct {
		name  string
		style uint32
	}{{"raw", StyleRaw}, {"deflate", StyleDeflate}} {
		t.Run(style.name, func(t *testing.T) {
			inMem, err := encodeStyle(s, style.style)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			var streamed bytes.Buffer
			// Stream through a one-byte-at-a-time writer so any buffering
			// difference would surface.
			if err := writeStyle(trickleWriter{&streamed}, s, style.style); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if !bytes.Equal(inMem, streamed.Bytes()) {
				t.Fatalf("streaming and in-memory encodings differ (%d vs %d bytes)", streamed.Len(), len(inMem))
			}
			// And the streaming reader must accept a dribbling source.
			got, err := Read(&trickleReader{data: inMem})
			if err != nil {
				t.Fatalf("Read from trickling reader: %v", err)
			}
			sessionsEqual(t, s, got)
		})
	}
}

// trickleWriter forwards one byte per Write call.
type trickleWriter struct{ b *bytes.Buffer }

func (w trickleWriter) Write(p []byte) (int, error) {
	for i := range p {
		w.b.WriteByte(p[i])
	}
	return len(p), nil
}

// trickleReader returns at most one byte per Read call.
type trickleReader struct {
	data []byte
	off  int
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.off]
	r.off++
	return 1, nil
}

func TestEncodeWorkerCountInvariant(t *testing.T) {
	s := sampleSession()
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, style := range []struct {
		name  string
		style uint32
	}{{"raw", StyleRaw}, {"deflate", StyleDeflate}} {
		t.Run(style.name, func(t *testing.T) {
			parallel.SetWorkers(1)
			one, err := encodeStyle(s, style.style)
			if err != nil {
				t.Fatalf("Encode workers=1: %v", err)
			}
			for _, w := range []int{2, 5, 16} {
				parallel.SetWorkers(w)
				many, err := encodeStyle(s, style.style)
				if err != nil {
					t.Fatalf("Encode workers=%d: %v", w, err)
				}
				if !bytes.Equal(one, many) {
					t.Fatalf("encoding differs between workers=1 and workers=%d", w)
				}
				got, err := Decode(many)
				if err != nil {
					t.Fatalf("Decode workers=%d: %v", w, err)
				}
				sessionsEqual(t, s, got)
			}
		})
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b, err := Encode(sampleSession())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(append(b, 0xEE)); err == nil {
		t.Fatal("Decode accepted trailing garbage")
	}
}
