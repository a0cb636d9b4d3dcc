package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/wire"
)

const (
	// frameType tags a compressed-update blob inside its ckpt frame. The
	// checkpoint file format reserves types 1-6 and the coord protocol uses
	// 16-24; compressed updates get their own range.
	frameType = uint32(48)
	// formatVersion is the blob body version.
	formatVersion = uint32(1)

	// Decode plausibility bounds: a hostile blob can claim any counts it
	// likes, so every size is capped before allocation.
	maxTensors   = 1 << 16
	maxRank      = 16
	maxElems     = 1 << 26 // elements per tensor (512 MiB of float64)
	maxBlobBytes = int64(1) << 32
)

// EncodedUpdate is one compressed update: the self-describing wire blob and
// the size the same tensors would occupy uncompressed (the raw-vs-encoded
// numerator for compression-ratio accounting).
type EncodedUpdate struct {
	// Data is the complete blob: a CRC32-protected ckpt frame (raw or
	// DEFLATE per the Spec) wrapping the encoded tensor body.
	Data []byte
	// RawBytes is the uncompressed wire size of the input tensors.
	RawBytes int64
}

// Decoded is the result of decoding a blob: the Spec it was encoded with and
// the reconstructed update tensors (dropped elements are zero).
type Decoded struct {
	Spec Spec
	Vecs []*tensor.Tensor
}

// Compressor encodes updates under one Spec. It is stateful: with top-k
// sparsification the per-tensor quantization/sparsification error is kept as
// a residual and added into the next round's update (error feedback), so
// dropped mass is re-sent rather than lost. A Compressor belongs to one
// worker and is not safe for concurrent use.
type Compressor struct {
	spec     Spec
	residual [][]float64
	snap     [][]float64 // Snapshot's storage, reused from call to call
}

// NewCompressor returns a Compressor for the spec. The zero (disabled) Spec
// is rejected — callers gate on Spec.Enabled before constructing one.
func NewCompressor(spec Spec) (*Compressor, error) {
	if !spec.Enabled() {
		return nil, fmt.Errorf("compress: cannot build a Compressor for the disabled spec")
	}
	return &Compressor{spec: spec}, nil
}

// Spec returns the codec this Compressor encodes with.
func (c *Compressor) Spec() Spec { return c.spec }

// Snapshot copies the error-feedback residuals into storage the Compressor
// keeps for the purpose and returns it, so a caller that may have its update
// rejected (the coordinator rewinds rounds that lose quorum) can Restore the
// pre-encode state and re-encode later without double counting the residual.
// A worker snapshots every round and rewinds almost never, so the copy reuses
// one buffer: a Snapshot is valid until the next Snapshot.
func (c *Compressor) Snapshot() [][]float64 {
	if c.residual == nil {
		return nil
	}
	c.snap = copyResiduals(c.snap, c.residual)
	return c.snap
}

// Restore replaces the residuals with a Snapshot's contents (nil: the state
// before the first Encode). The snapshot stays valid for further Restores.
func (c *Compressor) Restore(snap [][]float64) {
	if snap == nil {
		c.residual = nil
		return
	}
	c.residual = copyResiduals(c.residual, snap)
}

// copyResiduals deep-copies src into dst's storage where the sizes allow.
func copyResiduals(dst, src [][]float64) [][]float64 {
	if len(dst) != len(src) {
		dst = make([][]float64, len(src))
	}
	for i, r := range src {
		if r == nil {
			dst[i] = nil
			continue
		}
		if len(dst[i]) != len(r) {
			dst[i] = make([]float64, len(r))
		}
		copy(dst[i], r)
	}
	return dst
}

// Encode compresses one update. The input tensors are not modified; the
// Compressor's residuals are advanced by the error this encoding introduces
// (identically zero for a lossless Spec). Encoding is deterministic: equal
// inputs and equal residual state produce equal bytes.
func (c *Compressor) Encode(vecs []*tensor.Tensor) (*EncodedUpdate, error) {
	lossless := c.spec.Lossless()
	if !lossless && len(c.residual) != len(vecs) {
		c.residual = make([][]float64, len(vecs))
	}

	// The body is sized up front from what is known exactly — the value
	// sections — plus room for the headers; sparse index lists may grow it.
	specStr := c.spec.String()
	size := 32 + len(specStr)
	var rawBytes int64
	for i, t := range vecs {
		if t == nil {
			return nil, fmt.Errorf("compress: nil tensor %d in update", i)
		}
		rawBytes += nn.EncodedTensorBytes(t)
		size += 8*(2+t.Rank()) + valueBytes(c.spec.Precision, sparseCount(c.spec.TopK, t.Size()))
	}
	body := make([]byte, 0, size)
	body = binary.LittleEndian.AppendUint32(body, formatVersion)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(specStr)))
	body = append(body, specStr...)
	body = binary.AppendUvarint(body, uint64(len(vecs)))

	for i, t := range vecs {
		data := t.Data()
		n := len(data)

		// Error feedback: compress data + residual, then keep whatever this
		// encoding failed to transmit as the next round's residual. The sum
		// is formed in the residual buffer itself, which from here on is the
		// work vector, and the same pass finds the int8 grid's range. The
		// lossless path skips the addition entirely so the shipped bits are
		// exactly the input bits (x + 0.0 is not a bitwise identity for -0).
		work := data
		var lo, hi float64
		finite := true
		if !lossless {
			if len(c.residual[i]) != n {
				c.residual[i] = make([]float64, n)
			}
			work = c.residual[i]
			lo, hi, finite = addResidual(work, data)
		}

		// Select the transmitted elements: all of them, or the top-k by
		// error-compensated magnitude (NaN sorts as +Inf so a poisoned value
		// is transmitted, not silently dropped; ties break on lower index so
		// selection is deterministic).
		k := sparseCount(c.spec.TopK, n)
		sparse := k < n
		var idx []int
		if sparse {
			order := make([]int, n)
			for j := range order {
				order[j] = j
			}
			key := func(j int) float64 {
				a := math.Abs(work[j])
				if math.IsNaN(a) {
					return math.Inf(1)
				}
				return a
			}
			sort.Slice(order, func(a, b int) bool {
				ka, kb := key(order[a]), key(order[b])
				if ka != kb {
					return ka > kb
				}
				return order[a] < order[b]
			})
			idx = order[:k]
			sort.Ints(idx)
		}

		// Tensor header: shape, mode, and for sparse tensors the
		// delta+varint coded ascending index list.
		body = binary.AppendUvarint(body, uint64(t.Rank()))
		for d := 0; d < t.Rank(); d++ {
			body = binary.AppendUvarint(body, uint64(t.Dim(d)))
		}
		if sparse {
			body = append(body, 1)
			body = binary.AppendUvarint(body, uint64(k))
			prev := 0
			for j, ix := range idx {
				if j == 0 {
					body = binary.AppendUvarint(body, uint64(ix))
				} else {
					body = binary.AppendUvarint(body, uint64(ix-prev-1))
				}
				prev = ix
			}
		} else {
			body = append(body, 0)
		}

		// Values in index order, encoded into the body's next valueBytes
		// bytes. Each encoder leaves in vals what it failed to transmit,
		// value minus dequantized value — for a dense tensor vals is the
		// residual buffer, so that is the whole bookkeeping; a sparse one
		// gathers its k values and scatters their errors back, the elements
		// it dropped keeping their full error-compensated value.
		vals := work
		if sparse {
			vals = make([]float64, k)
			for j, ix := range idx {
				vals[j] = work[ix]
			}
		}
		need := valueBytes(c.spec.Precision, k)
		body = slices.Grow(body, need)
		out := body[len(body) : len(body)+need]
		body = body[:len(body)+need]
		switch c.spec.Precision {
		case FP64:
			encodeFP64(out, vals, !lossless)
		case FP16:
			encodeFP16(out, vals)
		case Int8:
			min, scale := int8Grid(lo, hi, finite)
			if sparse {
				min, scale = int8Params(vals)
			}
			encodeInt8(out, vals, min, scale)
		}
		if sparse {
			for j, ix := range idx {
				work[ix] = vals[j]
			}
		}
	}

	style := ckpt.StyleRaw
	if c.spec.Framing == Deflate {
		style = ckpt.StyleDeflate
	}
	var blob bytes.Buffer
	if _, err := ckpt.WriteFrame(&blob, ckpt.Frame{Type: frameType, Payload: body}, style); err != nil {
		return nil, fmt.Errorf("compress: framing update: %w", err)
	}
	return &EncodedUpdate{Data: blob.Bytes(), RawBytes: rawBytes}, nil
}

// valueBytes is the exact size of a tensor's value section: k values at the
// precision, behind the int8 grid's min and scale.
func valueBytes(p Precision, k int) int {
	switch p {
	case FP16:
		return 2 * k
	case Int8:
		return 16 + k
	default:
		return 8 * k
	}
}

// encodeFP64 writes vals verbatim. keepErr leaves v - v in each element: zero,
// or NaN for a value that is not finite. The lossless caller passes the input
// tensor's own data, which must stay as it is.
func encodeFP64(out []byte, vals []float64, keepErr bool) {
	for j, v := range vals {
		binary.LittleEndian.PutUint64(out[8*j:], math.Float64bits(v))
		if keepErr {
			vals[j] = v - v
		}
	}
}

// encodeFP16 writes vals as IEEE half floats and leaves each rounding error.
func encodeFP16(out []byte, vals []float64) {
	for j, v := range vals {
		h := float16FromFloat64(v)
		out[2*j] = byte(h)
		out[2*j+1] = byte(h >> 8)
		vals[j] = v - float16ToFloat64(h)
	}
}

// encodeInt8 writes the quantization grid and one byte per value, and leaves
// each quantization error. A value maps onto the [0, 255] grid
// round-to-nearest-even, with NaN and out-of-range values clamped into the
// grid; a scale of 0 maps everything to 0.
func encodeInt8(out []byte, vals []float64, min, scale float64) {
	binary.LittleEndian.PutUint64(out[0:], math.Float64bits(min))
	binary.LittleEndian.PutUint64(out[8:], math.Float64bits(scale))
	out = out[16 : 16+len(vals)]
	if scale == 0 {
		clear(out)
		for j, v := range vals {
			vals[j] = v - (min + scale*0) // the loop below's error at q = 0
		}
		return
	}
	for j, v := range vals {
		q := math.RoundToEven((v - min) / scale)
		if !(q >= 0) { // catches NaN too
			q = 0
		} else if q > 255 {
			q = 255
		}
		out[j] = byte(q)
		vals[j] = v - (min + scale*q)
	}
}

// sparseCount is the number of elements a Spec transmits for an n-element
// tensor: ceil(TopK*n) clamped to [1, n]. Encoder and decoder compute it
// identically, which pins a blob's sparse count to its claimed shape — a
// decoded tensor can never be more than 1/MinTopK times larger than the
// value bytes backing it.
func sparseCount(topK float64, n int) int {
	if topK >= 1 {
		return n
	}
	k := int(math.Ceil(topK * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// expMask selects a float64's exponent bits. The exponent is all ones, and
// the value Inf or NaN, exactly when adding 1<<52 to the masked bits carries
// into the sign bit: OR-ing that sum over a vector tests every element for
// finiteness without a branch.
const expMask = 0x7FF0_0000_0000_0000

// addResidual forms the work vector work[j] = data[j] + work[j] in one pass
// and returns its minimum, its maximum and whether every element is finite.
func addResidual(work, data []float64) (lo, hi float64, finite bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	var inf uint64
	work = work[:len(data)]
	for j, v := range data {
		x := v + work[j]
		work[j] = x
		inf |= math.Float64bits(x)&expMask + 1<<52
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, inf>>63 == 0
}

// int8Params scans vals for int8Grid.
func int8Params(vals []float64) (min, scale float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	var inf uint64
	for _, v := range vals {
		inf |= math.Float64bits(v)&expMask + 1<<52
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return int8Grid(lo, hi, inf>>63 == 0)
}

// int8Grid picks the per-tensor affine quantization grid from the range of
// the values: min plus a scale spanning [min, max] in 255 steps. A constant
// tensor gets scale 0 (every element decodes to min exactly). Any
// non-finite value poisons the grid to NaN so the whole tensor decodes to
// NaN — clamping a NaN or Inf onto the grid would silently launder a
// poisoned update past validation.
func int8Grid(lo, hi float64, finite bool) (min, scale float64) {
	if !finite {
		return math.NaN(), math.NaN()
	}
	scale = (hi - lo) / 255
	if scale == 0 || math.IsInf(scale, 0) {
		// Constant tensor, or a finite range overflowing float64: ship min
		// and let every element decode to it.
		scale = 0
	}
	return lo, scale
}

// Decode reconstructs an update from a blob produced by Encode. It is a pure
// function of the bytes — deterministic and scheduling-independent — and
// rejects structurally invalid input (truncation, trailing bytes, hostile
// counts, non-increasing index lists) with an error. Non-finite *values*
// decode successfully: screening them is fleet.ValidateUpdate's job, exactly
// as on the uncompressed path.
func Decode(data []byte) (*Decoded, error) {
	f, n, err := ckpt.DecodeFrame(data, maxBlobBytes)
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	if n != len(data) {
		return nil, fmt.Errorf("compress: %d trailing bytes after update frame", len(data)-n)
	}
	if f.Type != frameType {
		return nil, fmt.Errorf("compress: unexpected frame type %d", f.Type)
	}

	r := wire.NewReader(f.Payload)
	if v := r.Uint32("format version"); r.Err() == nil && v != formatVersion {
		return nil, fmt.Errorf("compress: unsupported format version %d", v)
	}
	specStr := r.String("codec spec")
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	spec, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	if !spec.Enabled() || spec.String() != specStr {
		return nil, fmt.Errorf("compress: non-canonical codec spec %q in update", specStr)
	}

	count := r.Uvarint("tensor count")
	if r.Err() == nil && count > maxTensors {
		r.Fail("tensor count")
	}
	var vecs []*tensor.Tensor
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		t, err := decodeTensor(r, spec)
		if err != nil {
			return nil, err
		}
		vecs = append(vecs, t)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	return &Decoded{Spec: spec, Vecs: vecs}, nil
}

func decodeTensor(r *wire.Reader, spec Spec) (*tensor.Tensor, error) {
	rank := r.Uvarint("tensor rank")
	if r.Err() == nil && (rank < 1 || rank > maxRank) {
		r.Fail("tensor rank")
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("compress: %w", r.Err())
	}
	dims := make([]int, rank)
	elems := 1
	for d := range dims {
		v := r.Uvarint("tensor dim")
		if r.Err() != nil {
			return nil, fmt.Errorf("compress: %w", r.Err())
		}
		if v < 1 || v > maxElems || elems > maxElems/int(v) {
			return nil, fmt.Errorf("compress: implausible tensor shape")
		}
		dims[d] = int(v)
		elems *= int(v)
	}

	mode := r.Take(1, "tensor mode")
	if r.Err() != nil {
		return nil, fmt.Errorf("compress: %w", r.Err())
	}
	n := elems
	k := n
	var idx []int
	switch mode[0] {
	case 0: // dense
	case 1: // sparse: delta+varint coded strictly ascending indices
		want := sparseCount(spec.TopK, n)
		if want >= n {
			return nil, fmt.Errorf("compress: sparse tensor under dense spec %q", spec)
		}
		kv := r.Uvarint("sparse count")
		if r.Err() != nil {
			return nil, fmt.Errorf("compress: %w", r.Err())
		}
		if kv != uint64(want) {
			return nil, fmt.Errorf("compress: sparse count %d, spec %q requires %d of %d", kv, spec, want, n)
		}
		k = int(kv)
		if r.Len() < k { // every index costs at least one varint byte
			return nil, fmt.Errorf("compress: truncated sparse index list")
		}
		idx = make([]int, k)
		prev := -1
		for j := 0; j < k; j++ {
			g := r.Uvarint("sparse index")
			if r.Err() != nil {
				return nil, fmt.Errorf("compress: %w", r.Err())
			}
			var ix uint64
			if j == 0 {
				ix = g
			} else {
				ix = uint64(prev) + g + 1
			}
			if ix >= uint64(n) || ix < uint64(prev+1) { // the second leg catches gap overflow
				return nil, fmt.Errorf("compress: sparse index out of range")
			}
			idx[j] = int(ix)
			prev = int(ix)
		}
	default:
		return nil, fmt.Errorf("compress: unknown tensor mode %d", mode[0])
	}

	// Never allocate from a claimed count the payload cannot back: the value
	// section's size is known exactly, so check it before the allocation —
	// a truncated blob must fail on bytes, not build a half-gigabyte tensor
	// first.
	if need := valueBytes(spec.Precision, k); r.Len() < need {
		return nil, fmt.Errorf("compress: truncated value section (%d bytes for %d values)", r.Len(), k)
	}
	// A dense tensor is dequantized straight into the tensor returned; a
	// sparse one into its k values, scattered below.
	t := tensor.New(dims...)
	vals := t.Data()
	if idx != nil {
		vals = make([]float64, k)
	}
	switch spec.Precision {
	case FP64:
		b := r.Take(8*k, "fp64 values")
		for j := range vals {
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
	case FP16:
		b := r.Take(2*k, "fp16 values")
		for j := range vals {
			vals[j] = float16ToFloat64(uint16(b[2*j]) | uint16(b[2*j+1])<<8)
		}
	case Int8:
		min := r.Float64("int8 min")
		scale := r.Float64("int8 scale")
		b := r.Take(k, "int8 values")
		for j := range vals {
			vals[j] = min + scale*float64(b[j])
		}
	}
	if idx != nil {
		d := t.Data()
		for j, ix := range idx {
			d[ix] = vals[j]
		}
	}
	return t, nil
}
