package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// hostileHeader is a raw-style frame header declaring n payload bytes.
func hostileHeader(n uint64) []byte {
	fh := make([]byte, FrameHeaderBytes)
	binary.LittleEndian.PutUint32(fh[0:], 20)
	binary.LittleEndian.PutUint32(fh[4:], StyleRaw)
	binary.LittleEndian.PutUint64(fh[8:], n)
	binary.LittleEndian.PutUint64(fh[16:], n)
	return fh
}

// TestFrameReaderLyingLength asserts what the format's sanity-bound comment
// has always claimed: a header declaring 3 GiB, followed by 1 KiB and the end
// of the stream, is a corrupt frame that cost a few megabytes to find out —
// not a 3 GiB allocation.
func TestFrameReaderLyingLength(t *testing.T) {
	stream := append(hostileHeader(3<<30), make([]byte, 1<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := NewFrameReader(bytes.NewReader(stream), 1<<32).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("reading a 1 KiB stream behind a 3 GiB header allocated %d bytes", grew)
	}
}

// TestDeflateFrameLyingRawLength is TestFrameReaderLyingLength for the
// decoded length: a valid DEFLATE frame of about 1 KiB whose header declares
// 3 GiB of raw payload is corrupt, found out for a few megabytes, through
// DecodeFrame and a FrameReader alike. The inflater's output grows as
// decoded bytes arrive; it is never sized from the header.
func TestDeflateFrameLyingRawLength(t *testing.T) {
	payload := make([]byte, 4<<10)
	for i := range payload {
		payload[i] = byte(i * i >> 3) // compresses to about a quarter
	}
	var b bytes.Buffer
	if _, err := WriteFrame(&b, Frame{Type: 20, Payload: payload}, StyleDeflate); err != nil {
		t.Fatal(err)
	}
	frame := b.Bytes()
	if n := len(frame) - FrameHeaderBytes; n < 512 || n > 2<<10 {
		t.Fatalf("the DEFLATE payload is %d bytes, want about 1 KiB", n)
	}
	binary.LittleEndian.PutUint64(frame[16:], 3<<30) // the CRC covers the encoded bytes only
	for _, how := range []string{"DecodeFrame", "FrameReader"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if how == "DecodeFrame" {
			_, _, err = DecodeFrame(frame, 0)
		} else {
			_, _, err = NewFrameReader(bytes.NewReader(frame), 0).Next()
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", how, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("%s: decoding a 1 KiB frame that claims 3 GiB allocated %d bytes", how, grew)
		}
	}
}

// trickle hands a stream out a few bytes per Read and checks, at every Read
// into the payload, how much buffer the reader is holding against how much
// payload has really arrived.
type trickle struct {
	t         *testing.T
	stream    []byte
	step      int
	delivered int // payload bytes handed out so far
	header    int // header bytes still to hand out
}

func (r *trickle) Read(p []byte) (int, error) {
	if r.header == 0 {
		// p runs from the payload bytes already read to the end of the
		// reader's buffer, so the buffer holds delivered + cap(p) bytes.
		if held := r.delivered + cap(p); held > 2*r.delivered+1<<20 {
			r.t.Fatalf("reader holds a %d-byte buffer after %d payload bytes arrived", held, r.delivered)
		}
	}
	if len(r.stream) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.step, len(r.stream))
	copy(p, r.stream[:n])
	r.stream = r.stream[n:]
	if r.header > 0 {
		r.header -= n
	} else {
		r.delivered += n
	}
	return n, nil
}

// TestFrameReaderGrowsWithArrivals: a peer that declares 256 MiB and trickles
// 5 MiB never makes the reader hold more than twice what has arrived plus the
// first megabyte.
func TestFrameReaderGrowsWithArrivals(t *testing.T) {
	src := &trickle{
		t:      t,
		stream: append(hostileHeader(256<<20), make([]byte, 5<<20)...),
		step:   48 << 10,
		header: FrameHeaderBytes,
	}
	_, _, err := NewFrameReader(src, 1<<32).Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if src.delivered != 5<<20 {
		t.Fatalf("reader stopped after %d of the %d bytes that arrived", src.delivered, 5<<20)
	}
}

// TestFrameReaderReusesBuffers: on one reader, a short frame after a long one
// returns exactly its own bytes — no stale tail of the long one — in either
// style, and once the buffer has grown to the long frame, reading raw frames
// allocates nothing.
func TestFrameReaderReusesBuffers(t *testing.T) {
	long := bytes.Repeat([]byte("edge training "), 40<<10) // 560 KiB
	short := []byte("ack")
	for _, style := range []uint32{StyleRaw, StyleDeflate} {
		var stream bytes.Buffer
		for _, p := range [][]byte{long, short, nil, long, short} {
			if _, err := WriteFrame(&stream, Frame{Type: 21, Payload: p}, style); err != nil {
				t.Fatal(err)
			}
		}
		fr := NewFrameReader(&stream, 0)
		for i, want := range [][]byte{long, short, nil, long, short} {
			f, n, err := fr.Next()
			if err != nil {
				t.Fatalf("style %d frame %d: %v", style, i, err)
			}
			if f.Type != 21 || !bytes.Equal(f.Payload, want) {
				t.Fatalf("style %d frame %d: %d payload bytes (%q...), want %d", style, i, len(f.Payload), f.Payload[:min(len(f.Payload), 16)], len(want))
			}
			if style == StyleRaw && n != FrameHeaderBytes+len(want) {
				t.Fatalf("frame %d consumed %d bytes, want %d", i, n, FrameHeaderBytes+len(want))
			}
		}
		if _, _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("style %d: reading past the last frame: %v, want ErrCorrupt", style, err)
		}
	}

	var stream bytes.Buffer
	for i := 0; i < 12; i++ {
		if _, err := WriteFrame(&stream, Frame{Type: 21, Payload: long}, StyleRaw); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&stream, 0)
	if _, _, err := fr.Next(); err != nil { // grows the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a raw frame into a grown buffer costs %v allocations", allocs)
	}
}

// TestDecodeFrameMatchesReader: DecodeFrame on bytes in memory answers as a
// FrameReader on the same bytes as a stream does, and a raw frame's payload
// is the caller's bytes, not a copy.
func TestDecodeFrameMatchesReader(t *testing.T) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 1000)
	for _, style := range []uint32{StyleRaw, StyleDeflate} {
		var b bytes.Buffer
		if _, err := WriteFrame(&b, Frame{Type: 48, Payload: payload}, style); err != nil {
			t.Fatal(err)
		}
		data := append(b.Bytes(), "trailing"...)
		want, wantN, err := NewFrameReader(bytes.NewReader(data), 0).Next()
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeFrame(data, 0)
		if err != nil || n != wantN || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("style %d: DecodeFrame = type %d, %d bytes, consumed %d, %v; reader says type %d, %d bytes, consumed %d",
				style, got.Type, len(got.Payload), n, err, want.Type, len(want.Payload), wantN)
		}
		if style == StyleRaw && &got.Payload[0] != &data[FrameHeaderBytes] {
			t.Fatal("a raw frame's payload was copied out of the caller's bytes")
		}
		for cut := 0; cut < n; cut += 97 {
			if _, _, err := DecodeFrame(data[:cut], 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("style %d: frame cut to %d bytes: %v, want ErrCorrupt", style, cut, err)
			}
		}
		data[FrameHeaderBytes+10] ^= 1
		if _, _, err := DecodeFrame(data, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("style %d: flipped payload bit: %v, want ErrCorrupt", style, err)
		}
	}
}
