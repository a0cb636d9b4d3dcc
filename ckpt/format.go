package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/wire"
)

// Format constants. The magic doubles as a human-greppable file signature.
const (
	// Magic is the 8-byte file signature opening every checkpoint.
	Magic = "EDGCKPT1"
	// FormatVersion is the current binary layout version.
	FormatVersion = 1

	headerBytes = 16 // magic + version + frame count
	// FrameHeaderBytes is the fixed size of one frame header
	// (type + style + encoded len + raw len + CRC32).
	FrameHeaderBytes = 28
)

// Frame styles: how a frame's payload bytes are encoded.
const (
	// StyleRaw stores the payload verbatim; encoded len == raw len.
	StyleRaw = uint32(0)
	// StyleDeflate stores the payload DEFLATE-compressed: compress/flate
	// writes it, the package's own inflater (inflate.go) reads it. Frames
	// compress independently, so parallel encoding stays bit-deterministic.
	StyleDeflate = uint32(1)
)

// Frame types: what one frame carries. Unknown types are a decode error, so
// a flipped type byte can never be silently skipped.
const (
	frameMeta       = uint32(1) // cursors, seed, RNG, counts of the other frames
	frameParam      = uint32(2) // one model parameter tensor
	frameLayerState = uint32(3) // one non-trainable layer state tensor
	frameOptMeta    = uint32(4) // optimizer name, step, slot count
	frameOptSlot    = uint32(5) // one optimizer state vector
	frameWorker     = uint32(6) // one fleet worker's progress
)

// Sanity bounds: a corrupt header must yield a typed error, not an absurd
// allocation. Actual reads grow incrementally, so a lying length costs at
// most the bytes really present in the stream.
const (
	maxFrames     = 1 << 22 // 4M frames
	maxFrameBytes = int64(1) << 40
	maxSlotElems  = int64(1) << 40
)

// flateWriters pools DEFLATE compressors: a fresh flate.Writer allocates
// ~1 MB of window state, which would otherwise be paid once per frame.
// Reset produces output bit-identical to a newly constructed writer, so
// pooling does not perturb the format's determinism.
var flateWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		// BestSpeed is a valid level; NewWriter cannot fail on it.
		panic(err)
	}
	return w
}}

// Frame is the codec unit shared by the on-disk checkpoint format and the
// fleet coordination wire protocol (package coord): a caller-defined type tag
// and an opaque payload, carried raw or DEFLATE-compressed behind a CRC32 of
// the encoded bytes. WriteFrame and a FrameReader (or DecodeFrame, for a frame
// already in memory) move single frames through the exact byte layout
// checkpoint files use, so a network peer's update payload enjoys the same
// corruption detection as a checkpoint on flash.
type Frame struct {
	// Type tags the payload. The checkpoint file format reserves types 1-6;
	// other consumers (the coord wire protocol) use their own ranges.
	Type uint32
	// Payload is the raw (decoded) payload bytes.
	Payload []byte
}

// encFrame is one frame after styling: encoded payload plus header fields.
type encFrame struct {
	typ    uint32
	style  uint32
	rawLen uint64
	crc    uint32
	enc    []byte
}

// frameHeader lays out the fixed header that precedes a frame's encoded
// payload in a checkpoint file and on the wire.
func frameHeader(f encFrame) (fh [FrameHeaderBytes]byte) {
	binary.LittleEndian.PutUint32(fh[0:], f.typ)
	binary.LittleEndian.PutUint32(fh[4:], f.style)
	binary.LittleEndian.PutUint64(fh[8:], uint64(len(f.enc)))
	binary.LittleEndian.PutUint64(fh[16:], f.rawLen)
	binary.LittleEndian.PutUint32(fh[24:], f.crc)
	return fh
}

// encodeFramePayload styles one payload (verbatim or DEFLATE) and computes
// the CRC32 of the encoded bytes — the per-frame work both the parallel
// checkpoint writer and the single-frame WriteFrame share.
func encodeFramePayload(payload []byte, style uint32) (enc []byte, crc uint32, err error) {
	switch style {
	case StyleRaw:
		enc = payload
	case StyleDeflate:
		var b bytes.Buffer
		fw := flateWriters.Get().(*flate.Writer)
		fw.Reset(&b)
		_, err := fw.Write(payload)
		if err == nil {
			err = fw.Close()
		}
		flateWriters.Put(fw)
		if err != nil {
			return nil, 0, fmt.Errorf("ckpt: compressing frame: %w", err)
		}
		enc = b.Bytes()
	default:
		return nil, 0, fmt.Errorf("ckpt: unknown frame style %d", style)
	}
	return enc, crc32.ChecksumIEEE(enc), nil
}

// growthStep is the first allocation for a payload whose declared length is
// not yet backed by bytes in hand; from there a buffer doubles as bytes really
// arrive, so a lying length costs at most twice the bytes actually present
// plus this.
const growthStep = 1 << 20

// fill reads from r until buf holds n bytes and returns it, reusing buf's
// storage: a buffer that is already large enough is filled with one ReadFull
// and nothing is allocated. A smaller one grows geometrically, and only once
// the bytes it has room for have arrived.
func fill(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), growthStep)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// decodeFramePayload verifies one encoded frame's CRC and undoes its style,
// returning the raw payload — shared by the parallel checkpoint decoder, the
// FrameReader and DecodeFrame. A raw frame's payload is f.enc itself; a
// DEFLATE frame inflates (inflate.go) into dst's storage (nil allocates),
// which grows as fill's buffers do. idx labels the frame in error messages.
func decodeFramePayload(f encFrame, idx int, dst []byte) ([]byte, error) {
	if got := crc32.ChecksumIEEE(f.enc); got != f.crc {
		return nil, corruptf("frame %d CRC mismatch (stored %#x, computed %#x)", idx, f.crc, got)
	}
	if f.style == StyleRaw {
		return f.enc, nil
	}
	raw, err := inflate(dst, f.enc, int(f.rawLen))
	if err != nil {
		return nil, corruptf("frame %d decompresses to %d bytes, header says %d (%v)", idx, len(raw), f.rawLen, err)
	}
	return raw, nil
}

// WriteFrame encodes one frame to w in the checkpoint frame layout — the
// 28-byte header (type, style, encoded length, raw length, CRC32-IEEE) and
// the styled payload — and returns the total bytes written. It is the unit
// the coord wire protocol frames every message with; the bytes are identical
// to the corresponding frame of a checkpoint file.
func WriteFrame(w io.Writer, f Frame, style uint32) (int, error) {
	enc, crc, err := encodeFramePayload(f.Payload, style)
	if err != nil {
		return 0, err
	}
	fh := frameHeader(encFrame{typ: f.Type, style: style, rawLen: uint64(len(f.Payload)), crc: crc, enc: enc})
	if _, err := w.Write(fh[:]); err != nil {
		return 0, fmt.Errorf("ckpt: writing frame header: %w", err)
	}
	if _, err := w.Write(enc); err != nil {
		return FrameHeaderBytes, fmt.Errorf("ckpt: writing frame payload: %w", err)
	}
	return FrameHeaderBytes + len(enc), nil
}

// parseFrameHeader validates one frame header. maxBytes bounds both declared
// lengths; idx labels the frame in error messages. The returned frame has no
// payload yet: encLen is how many encoded bytes follow the header.
func parseFrameHeader(fh []byte, idx int, maxBytes int64) (f encFrame, encLen uint64, err error) {
	f = encFrame{
		typ:    binary.LittleEndian.Uint32(fh[0:]),
		style:  binary.LittleEndian.Uint32(fh[4:]),
		rawLen: binary.LittleEndian.Uint64(fh[16:]),
		crc:    binary.LittleEndian.Uint32(fh[24:]),
	}
	encLen = binary.LittleEndian.Uint64(fh[8:])
	if f.style != StyleRaw && f.style != StyleDeflate {
		return encFrame{}, 0, corruptf("frame %d has unknown style %d", idx, f.style)
	}
	if encLen > uint64(maxBytes) || f.rawLen > uint64(maxBytes) {
		return encFrame{}, 0, corruptf("frame %d has implausible length (%d encoded, %d raw)", idx, encLen, f.rawLen)
	}
	if f.style == StyleRaw && encLen != f.rawLen {
		return encFrame{}, 0, corruptf("frame %d raw style with mismatched lengths (%d encoded, %d raw)", idx, encLen, f.rawLen)
	}
	return f, encLen, nil
}

// FrameReader reads the frames of one stream, in order, into buffers it keeps
// between frames: once they have grown to the stream's largest frame, reading
// a frame allocates nothing. A connection owns one for its lifetime
// (coord's frameConn.Recv). The buffers grow only as bytes really arrive
// (see fill), so a header declaring gigabytes costs what the peer actually
// sends. Not safe for concurrent use.
type FrameReader struct {
	r        io.Reader
	maxBytes int64
	head     [FrameHeaderBytes]byte
	enc      []byte // encoded payload of the current frame
	raw      []byte // its inflated form, when the frame is DEFLATE-styled
}

// NewFrameReader returns a reader of the frames on r. maxBytes bounds every
// frame's declared sizes (a DoS guard when the stream comes from a network
// peer rather than a local file); maxBytes <= 0 applies the format's global
// bound.
func NewFrameReader(r io.Reader, maxBytes int64) *FrameReader {
	if maxBytes <= 0 {
		maxBytes = maxFrameBytes
	}
	return &FrameReader{r: r, maxBytes: maxBytes}
}

// readEnc reads one frame header and its encoded payload without decoding
// it. The payload lands in buf's storage (see fill), so a lying length costs
// only the bytes actually present; the frame's enc is that buffer, possibly
// regrown. idx labels the frame in error messages.
func (fr *FrameReader) readEnc(idx int, buf []byte) (encFrame, int, error) {
	if _, err := io.ReadFull(fr.r, fr.head[:]); err != nil {
		return encFrame{}, 0, corruptf("reading frame %d header: %v", idx, err)
	}
	f, encLen, err := parseFrameHeader(fr.head[:], idx, fr.maxBytes)
	if err != nil {
		return encFrame{}, 0, err
	}
	f.enc, err = fill(fr.r, buf, int(encLen))
	if err != nil {
		return f, 0, corruptf("reading frame %d payload: got %d of %d bytes: %v", idx, len(f.enc), encLen, err)
	}
	return f, FrameHeaderBytes + int(encLen), nil
}

// Next reads one frame written by WriteFrame: header validation, a bounded
// payload read, CRC verification and decompression. It returns the decoded
// frame and the total bytes consumed. The payload aliases the reader's
// buffers: it is valid until the next call to Next, and a caller that keeps
// any of it longer must copy. Frame types are not interpreted — each consumer
// owns its type namespace. Every structural defect is reported as an error
// wrapping ErrCorrupt.
func (fr *FrameReader) Next() (Frame, int, error) {
	f, n, err := fr.readEnc(0, fr.enc)
	if f.enc != nil {
		fr.enc = f.enc
	}
	if err != nil {
		return Frame{}, 0, err
	}
	payload, err := decodeFramePayload(f, 0, fr.raw)
	if err != nil {
		return Frame{}, n, err
	}
	if f.style != StyleRaw {
		fr.raw = payload
	}
	return Frame{Type: f.typ, Payload: payload}, n, nil
}

// DecodeFrame decodes the frame at the start of data, an encoded frame
// already in memory, with every check Next applies to a stream. It returns
// the frame and how many bytes of data it occupies. A raw frame's payload
// aliases data — nothing is copied; a DEFLATE frame's is freshly allocated.
func DecodeFrame(data []byte, maxBytes int64) (Frame, int, error) {
	if maxBytes <= 0 {
		maxBytes = maxFrameBytes
	}
	if len(data) < FrameHeaderBytes {
		return Frame{}, 0, corruptf("reading frame 0 header: %d of %d bytes", len(data), FrameHeaderBytes)
	}
	f, encLen, err := parseFrameHeader(data, 0, maxBytes)
	if err != nil {
		return Frame{}, 0, err
	}
	rest := data[FrameHeaderBytes:]
	if uint64(len(rest)) < encLen {
		return Frame{}, 0, corruptf("reading frame 0 payload: got %d of %d bytes", len(rest), encLen)
	}
	f.enc = rest[:encLen]
	n := FrameHeaderBytes + int(encLen)
	payload, err := decodeFramePayload(f, 0, nil)
	if err != nil {
		return Frame{}, n, err
	}
	return Frame{Type: f.typ, Payload: payload}, n, nil
}

// frameCount is the number of frames the session serializes to.
func frameCount(s *Session) int {
	return 1 + len(s.Params) + len(s.LayerState) + 1 + len(s.Opt.Slots) + len(s.Workers)
}

// putFrame appends the raw payload of the session's i-th frame to b and
// returns the frame's type. Frames come in the canonical order — meta,
// params, layer state, optimizer meta, optimizer slots, workers — which is
// part of the format: decode reassembles slices in frame order.
func putFrame(s *Session, i int, b *bytes.Buffer) (uint32, error) {
	if i == 0 {
		wire.PutString(b, s.Kind)
		wire.PutString(b, s.LibraryVersion)
		wire.PutInt64(b, int64(s.Epoch))
		wire.PutInt64(b, int64(s.Step))
		wire.PutInt64(b, int64(s.Round))
		wire.PutInt64(b, int64(s.BatchSize))
		wire.PutUint64(b, s.Seed)
		wire.PutUint32(b, uint32(len(s.RNG)))
		for _, w := range s.RNG {
			wire.PutUint64(b, w)
		}
		wire.PutUint32(b, uint32(len(s.Params)))
		wire.PutUint32(b, uint32(len(s.LayerState)))
		wire.PutUint32(b, uint32(len(s.Opt.Slots)))
		wire.PutUint32(b, uint32(len(s.Workers)))
		return frameMeta, nil
	}
	i--
	if i < len(s.Params) {
		if err := putNamedTensor(b, s.Params[i]); err != nil {
			return 0, fmt.Errorf("ckpt: encoding parameter %q: %w", s.Params[i].Name, err)
		}
		return frameParam, nil
	}
	i -= len(s.Params)
	if i < len(s.LayerState) {
		if err := putNamedTensor(b, s.LayerState[i]); err != nil {
			return 0, fmt.Errorf("ckpt: encoding layer state %q: %w", s.LayerState[i].Name, err)
		}
		return frameLayerState, nil
	}
	i -= len(s.LayerState)
	if i == 0 {
		wire.PutString(b, s.Opt.Name)
		wire.PutInt64(b, s.Opt.Step)
		wire.PutUint32(b, uint32(len(s.Opt.Slots)))
		return frameOptMeta, nil
	}
	i--
	if i < len(s.Opt.Slots) {
		putOptSlot(b, s.Opt.Slots[i])
		return frameOptSlot, nil
	}
	putWorkerState(b, &s.Workers[i-len(s.Opt.Slots)])
	return frameWorker, nil
}

func putNamedTensor(b *bytes.Buffer, nt NamedTensor) error {
	if nt.Tensor == nil {
		return fmt.Errorf("nil tensor")
	}
	b.Grow(4 + len(nt.Name) + int(nn.EncodedTensorBytes(nt.Tensor)))
	wire.PutString(b, nt.Name)
	return nn.WriteTensor(b, nt.Tensor)
}

func putOptSlot(b *bytes.Buffer, slot OptSlot) {
	b.Grow(8 + len(slot.Param) + len(slot.Slot) + 8 + 8*len(slot.Data))
	wire.PutString(b, slot.Param)
	wire.PutString(b, slot.Slot)
	wire.PutUint64(b, uint64(len(slot.Data)))
	// The values are encoded in place in the buffer's spare capacity (grown
	// above) and committed with one Write, not one Write per value.
	data := b.AvailableBuffer()[:8*len(slot.Data)]
	for i, v := range slot.Data {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
	}
	b.Write(data)
}

// EncodeWorkerState serializes one worker's durable progress — index, name,
// round/sample counters and optimizer state — in exactly the payload layout
// of a checkpoint file's worker frame. The coord protocol reuses it to carry
// recovered worker state to a rejoining node.
func EncodeWorkerState(w *WorkerState) []byte {
	var wb bytes.Buffer
	putWorkerState(&wb, w)
	return wb.Bytes()
}

func putWorkerState(b *bytes.Buffer, w *WorkerState) {
	wire.PutString(b, w.Name)
	wire.PutInt64(b, int64(w.Index))
	wire.PutInt64(b, w.Rounds)
	wire.PutInt64(b, w.Samples)
	wire.PutString(b, w.Opt.Name)
	wire.PutInt64(b, w.Opt.Step)
	wire.PutUint32(b, uint32(len(w.Opt.Slots)))
	for _, slot := range w.Opt.Slots {
		putOptSlot(b, slot)
	}
}

// DecodeWorkerState parses a payload written by EncodeWorkerState.
func DecodeWorkerState(payload []byte) (*WorkerState, error) {
	return parseWorker(payload)
}

// writeSession serializes the session to w in raw frames: on an
// SD-card-backed edge node the fsync dominates, fp64 weights do not compress
// (a DEFLATE-framed checkpoint of a trained model comes out larger), and raw
// bytes round-trip fastest. Frames are built one at a time in scratch and
// streamed out — the whole file is never in memory, and a caller that writes
// many checkpoints (a Dir) passes the same scratch every time. Read still
// accepts the DEFLATE frames of files written by earlier versions.
func writeSession(w io.Writer, s *Session, scratch *bytes.Buffer) error {
	n := frameCount(s)
	var head [headerBytes]byte
	copy(head[:8], Magic)
	binary.LittleEndian.PutUint32(head[8:], FormatVersion)
	binary.LittleEndian.PutUint32(head[12:], uint32(n))
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("ckpt: writing header: %w", err)
	}
	for i := 0; i < n; i++ {
		scratch.Reset()
		typ, err := putFrame(s, i, scratch)
		if err != nil {
			return err
		}
		if _, err := WriteFrame(w, Frame{Type: typ, Payload: scratch.Bytes()}, StyleRaw); err != nil {
			return fmt.Errorf("ckpt: frame %d: %w", i, err)
		}
	}
	return nil
}

// Write serializes the session to w in the framed checkpoint format. The
// bytes written are identical to Encode's: both modes share this code path.
func Write(w io.Writer, s *Session) error {
	var scratch bytes.Buffer
	return writeSession(w, s, &scratch)
}

// Encode serializes the session in memory, returning exactly the bytes Write
// would stream.
func Encode(s *Session) ([]byte, error) {
	var b bytes.Buffer
	if err := Write(&b, s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Read deserializes a checkpoint from r. Frame payloads are gathered
// sequentially (the stream is read exactly once, in order) and then
// CRC-checked, decompressed and parsed in parallel. Any structural problem
// returns an error wrapping ErrCorrupt.
func Read(r io.Reader) (*Session, error) {
	var head [headerBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, corruptf("reading header: %v", err)
	}
	if string(head[:8]) != Magic {
		return nil, corruptf("bad magic %q", head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:]); v != FormatVersion {
		return nil, corruptf("unsupported format version %d", v)
	}
	count := binary.LittleEndian.Uint32(head[12:])
	if count == 0 || count > maxFrames {
		return nil, corruptf("implausible frame count %d", count)
	}

	// Grow the frame table as frames actually arrive: a corrupt count cannot
	// force one huge up-front allocation.
	frames := make([]encFrame, 0, min(count, 4096))
	fr := NewFrameReader(r, maxFrameBytes)
	for i := 0; i < int(count); i++ {
		f, _, err := fr.readEnc(i, nil) // every frame in a buffer of its own: they decode in parallel below
		if err != nil {
			return nil, err
		}
		if f.typ < frameMeta || f.typ > frameWorker {
			return nil, corruptf("frame %d has unknown type %d", i, f.typ)
		}
		frames = append(frames, f)
	}
	return decodeFrames(frames)
}

// Decode deserializes an in-memory checkpoint, additionally rejecting
// trailing garbage after the last frame.
func Decode(data []byte) (*Session, error) {
	r := bytes.NewReader(data)
	s, err := Read(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, corruptf("%d trailing bytes after the last frame", r.Len())
	}
	return s, nil
}

// decodeFrames verifies and parses every frame in parallel, then assembles
// the session in frame order and validates the counts the meta frame
// declares, so dropped or duplicated frames are always detected.
func decodeFrames(frames []encFrame) (*Session, error) {
	type parsed struct {
		meta   *Session
		param  *NamedTensor
		state  *NamedTensor
		opt    *OptimizerState
		slot   *OptSlot
		worker *WorkerState
	}
	out := make([]parsed, len(frames))
	errs := make([]error, len(frames))
	parallel.ForChunks(len(frames), 1, func(i, _, _ int) {
		f := frames[i]
		payload, err := decodeFramePayload(f, i, nil)
		if err != nil {
			errs[i] = err
			return
		}
		p := &out[i]
		switch f.typ {
		case frameMeta:
			p.meta, err = parseMeta(payload)
		case frameParam:
			p.param, err = parseNamedTensor(payload)
		case frameLayerState:
			p.state, err = parseNamedTensor(payload)
		case frameOptMeta:
			p.opt, err = parseOptMeta(payload)
		case frameOptSlot:
			p.slot, err = parseOptSlot(payload)
		case frameWorker:
			p.worker, err = parseWorker(payload)
		}
		if err != nil {
			errs[i] = corruptf("frame %d (type %d): %v", i, f.typ, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var s *Session
	var optMeta *OptimizerState
	for i := range out {
		p := &out[i]
		switch {
		case p.meta != nil:
			if s != nil {
				return nil, corruptf("duplicate meta frame")
			}
			s = p.meta
		case s == nil:
			return nil, corruptf("frame %d precedes the meta frame", i)
		case p.param != nil:
			s.Params = append(s.Params, *p.param)
		case p.state != nil:
			s.LayerState = append(s.LayerState, *p.state)
		case p.opt != nil:
			if optMeta != nil {
				return nil, corruptf("duplicate optimizer meta frame")
			}
			optMeta = p.opt
			s.Opt.Name = p.opt.Name
			s.Opt.Step = p.opt.Step
		case p.slot != nil:
			s.Opt.Slots = append(s.Opt.Slots, *p.slot)
		case p.worker != nil:
			s.Workers = append(s.Workers, *p.worker)
		}
	}
	if s == nil {
		return nil, corruptf("missing meta frame")
	}
	if optMeta == nil {
		return nil, corruptf("missing optimizer meta frame")
	}
	// The meta frame pins the expected composition; every mismatch means a
	// frame was lost, duplicated or mistyped.
	if len(s.Params) != s.declParams || len(s.LayerState) != s.declStates ||
		len(s.Opt.Slots) != s.declOptSlots || len(s.Workers) != s.declWorkers ||
		len(s.Opt.Slots) != optMeta.declSlots {
		return nil, corruptf("frame composition mismatch: have %d params/%d states/%d opt slots/%d workers, meta declares %d/%d/%d/%d (optimizer meta %d slots)",
			len(s.Params), len(s.LayerState), len(s.Opt.Slots), len(s.Workers),
			s.declParams, s.declStates, s.declOptSlots, s.declWorkers, optMeta.declSlots)
	}
	// The declared counts served their purpose; return a plain-data session.
	s.declParams, s.declStates, s.declOptSlots, s.declWorkers = 0, 0, 0, 0
	s.Opt.declSlots = 0
	return s, nil
}

// Declared-count fields live on Session/OptimizerState only during decoding;
// they are never serialized from these fields (the meta frame carries them).
// Keeping them unexported keeps the public structs plain data.

func parseMeta(payload []byte) (*Session, error) {
	p := wire.NewReader(payload)
	s := &Session{}
	s.Kind = p.String("kind")
	s.LibraryVersion = p.String("library version")
	s.Epoch = int(p.Int64("epoch"))
	s.Step = int(p.Int64("step"))
	s.Round = int(p.Int64("round"))
	s.BatchSize = int(p.Int64("batch size"))
	s.Seed = p.Uint64("seed")
	nRNG := p.Uint32("rng word count")
	if p.Err() == nil && nRNG > 64 {
		return nil, fmt.Errorf("implausible RNG word count %d", nRNG)
	}
	for i := uint32(0); i < nRNG && p.Err() == nil; i++ {
		s.RNG = append(s.RNG, p.Uint64("rng word"))
	}
	s.declParams = int(p.Uint32("param count"))
	s.declStates = int(p.Uint32("layer state count"))
	s.declOptSlots = int(p.Uint32("opt slot count"))
	s.declWorkers = int(p.Uint32("worker count"))
	if err := p.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseNamedTensor(payload []byte) (*NamedTensor, error) {
	p := wire.NewReader(payload)
	name := p.String("name")
	if err := p.Err(); err != nil {
		return nil, err
	}
	rest := p.Rest()
	t, err := nn.ReadTensor(bytes.NewReader(rest))
	if err != nil {
		return nil, err
	}
	if nn.EncodedTensorBytes(t) != int64(len(rest)) {
		return nil, fmt.Errorf("%d leftover bytes after tensor %q", int64(len(rest))-nn.EncodedTensorBytes(t), name)
	}
	return &NamedTensor{Name: name, Tensor: t}, nil
}

func parseOptMeta(payload []byte) (*OptimizerState, error) {
	p := wire.NewReader(payload)
	st := &OptimizerState{}
	st.Name = p.String("optimizer name")
	st.Step = p.Int64("optimizer step")
	st.declSlots = int(p.Uint32("optimizer slot count"))
	if err := p.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// parseOptSlotAt reads one slot vector from the cursor.
func parseOptSlotAt(p *wire.Reader) (OptSlot, error) {
	var slot OptSlot
	slot.Param = p.String("slot parameter name")
	slot.Slot = p.String("slot name")
	n := p.Uint64("slot element count")
	if err := p.Err(); err != nil {
		return slot, err
	}
	// Bound before the int conversion so 32-bit targets reject a lying
	// count instead of truncating it (same discipline as nn.ReadTensor).
	if n > uint64(maxSlotElems) || n > uint64(math.MaxInt/8) {
		return slot, fmt.Errorf("implausible slot element count %d", n)
	}
	b := p.Take(int(n)*8, "slot data")
	if err := p.Err(); err != nil {
		return slot, err
	}
	slot.Data = make([]float64, n)
	for i := range slot.Data {
		slot.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return slot, nil
}

func parseOptSlot(payload []byte) (*OptSlot, error) {
	p := wire.NewReader(payload)
	slot, err := parseOptSlotAt(p)
	if err != nil {
		return nil, err
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return &slot, nil
}

func parseWorker(payload []byte) (*WorkerState, error) {
	p := wire.NewReader(payload)
	w := &WorkerState{}
	w.Name = p.String("worker name")
	w.Index = int(p.Int64("worker index"))
	w.Rounds = p.Int64("worker rounds")
	w.Samples = p.Int64("worker samples")
	w.Opt.Name = p.String("worker optimizer name")
	w.Opt.Step = p.Int64("worker optimizer step")
	nslots := p.Uint32("worker slot count")
	if err := p.Err(); err != nil {
		return nil, err
	}
	if nslots > maxFrames {
		return nil, fmt.Errorf("implausible worker slot count %d", nslots)
	}
	for i := uint32(0); i < nslots; i++ {
		slot, err := parseOptSlotAt(p)
		if err != nil {
			return nil, err
		}
		w.Opt.Slots = append(w.Opt.Slots, slot)
	}
	if err := p.Done(); err != nil {
		return nil, err
	}
	return w, nil
}
