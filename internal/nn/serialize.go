package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// Single-tensor codec. The checkpoint store's flash tier spills activation
// states to disk between the forward sweep and the backward sweep, so the
// format is optimised for the training loop rather than for archival: a raw
// little-endian layout (magic, rank, dims, then the float64 bits) that
// round-trips bit-exactly and is staged through the pooled byte scratch in
// internal/tensor, so steady-state spilling allocates only the restored
// tensor itself.

// tensorMagic identifies the raw tensor layout ("EDT1").
const tensorMagic = 0x45445431

// tensorChunkBytes is the staging granularity of the codec: the float64 data
// streams through a pooled buffer of this size, so a spill never holds a
// second full-size copy of the state — the extra memory is O(chunk), which
// matters on exactly the RAM-starved devices spilling is for.
const tensorChunkBytes = 64 << 10

// maxTensorElems bounds the element count ReadTensor accepts, so a corrupt
// or truncated spill file yields a decode error instead of an absurd
// allocation (2^48 elements is two petabytes of float64s). Dimensions are
// additionally bounded by the platform int so 32-bit targets (the ODROID's
// ARM cores) reject rather than truncate.
const maxTensorElems = int64(1) << 48

// maxEagerElems is the size up to which ReadTensor trusts the validated
// header and allocates the data exactly once (no append re-copying on the
// flash-restore hot path). Larger claims — far beyond any real checkpoint —
// grow incrementally, so a corrupt header costs at most the bytes actually
// present in the stream rather than one huge up-front allocation.
const maxEagerElems = int64(1) << 27 // 1 GiB of float64s

// EncodedTensorBytes returns the size of a tensor in the WriteTensor format.
func EncodedTensorBytes(t *tensor.Tensor) int64 {
	return 8 + 8*int64(t.Rank()) + 8*int64(t.Size())
}

// WriteTensor writes a single tensor to w in the raw edgetrain tensor format.
func WriteTensor(w io.Writer, t *tensor.Tensor) error {
	rank := t.Rank()
	headp := tensor.GetByteScratch(8 + 8*rank)
	head := *headp
	binary.LittleEndian.PutUint32(head[0:], tensorMagic)
	binary.LittleEndian.PutUint32(head[4:], uint32(rank))
	for i := 0; i < rank; i++ {
		binary.LittleEndian.PutUint64(head[8+8*i:], uint64(t.Dim(i)))
	}
	_, err := w.Write(head)
	tensor.PutByteScratch(headp)
	if err != nil {
		return err
	}
	bufp := tensor.GetByteScratch(tensorChunkBytes)
	defer tensor.PutByteScratch(bufp)
	buf := *bufp
	data := t.Data()
	for len(data) > 0 {
		n := min(len(data), tensorChunkBytes/8)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// ReadTensor reads a tensor written by WriteTensor. The returned tensor owns
// freshly allocated storage; the decode is bit-exact.
func ReadTensor(r io.Reader) (*tensor.Tensor, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("nn: reading tensor header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(head[0:]); m != tensorMagic {
		return nil, fmt.Errorf("nn: bad tensor magic %#x", m)
	}
	rank := int(binary.LittleEndian.Uint32(head[4:]))
	if rank > 32 {
		return nil, fmt.Errorf("nn: implausible tensor rank %d", rank)
	}
	shape := make([]int, rank)
	size := int64(1)
	dimsp := tensor.GetByteScratch(8 * rank)
	if _, err := io.ReadFull(r, *dimsp); err != nil {
		tensor.PutByteScratch(dimsp)
		return nil, fmt.Errorf("nn: reading tensor dims: %w", err)
	}
	for i := range shape {
		d := binary.LittleEndian.Uint64((*dimsp)[8*i:])
		// Validate before multiplying so corrupt headers cannot overflow
		// size into a negative or absurd allocation, and before the int
		// conversion so 32-bit platforms reject instead of truncating.
		if d > uint64(maxTensorElems) || d > uint64(math.MaxInt) || (d > 0 && size > maxTensorElems/int64(d)) {
			tensor.PutByteScratch(dimsp)
			return nil, fmt.Errorf("nn: implausible tensor dimension %d", d)
		}
		shape[i] = int(d)
		size *= int64(d)
	}
	tensor.PutByteScratch(dimsp)
	// Any realistic checkpoint gets its storage in one exact allocation (no
	// append re-copying while restoring on a RAM-starved device); only a
	// header claiming more than maxEagerElems — necessarily corrupt — falls
	// back to incremental growth, which costs at most the bytes actually
	// present in the stream before the read error surfaces.
	initialCap := size
	if size > maxEagerElems {
		initialCap = tensorChunkBytes / 8
	}
	data := make([]float64, 0, initialCap)
	bufp := tensor.GetByteScratch(tensorChunkBytes)
	defer tensor.PutByteScratch(bufp)
	buf := *bufp
	for remaining := size; remaining > 0; {
		n := min(remaining, tensorChunkBytes/8)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return nil, fmt.Errorf("nn: reading tensor data: %w", err)
		}
		for i := int64(0); i < n; i++ {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		remaining -= n
	}
	return tensor.FromSlice(data, shape...), nil
}

// AppendTensor appends the tensor to b in the WriteTensor format — the same
// bytes, encoded in one pass with no staging buffer, for a caller that is
// assembling a message in memory and has sized b from EncodedTensorBytes.
func AppendTensor(b []byte, t *tensor.Tensor) []byte {
	b = binary.LittleEndian.AppendUint32(b, tensorMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Rank()))
	for i := 0; i < t.Rank(); i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Dim(i)))
	}
	for _, v := range t.Data() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodeTensorInto decodes chunk, one tensor in the WriteTensor format, into
// dst's existing storage, bit-exactly. The chunk must describe dst exactly:
// magic, rank, every dimension and the chunk's length are checked against dst
// before the first value is written, so a rejected chunk leaves dst untouched.
func DecodeTensorInto(dst *tensor.Tensor, chunk []byte) error {
	rank := dst.Rank()
	if len(chunk) < 8+8*rank {
		return fmt.Errorf("nn: tensor chunk of %d bytes is shorter than a rank-%d header", len(chunk), rank)
	}
	if m := binary.LittleEndian.Uint32(chunk[0:]); m != tensorMagic {
		return fmt.Errorf("nn: bad tensor magic %#x", m)
	}
	if r := binary.LittleEndian.Uint32(chunk[4:]); r != uint32(rank) {
		return fmt.Errorf("nn: tensor rank %d, want %d", r, rank)
	}
	for i := 0; i < rank; i++ {
		if d := binary.LittleEndian.Uint64(chunk[8+8*i:]); d != uint64(dst.Dim(i)) {
			return fmt.Errorf("nn: tensor dimension %d is %d, want shape %v", i, d, dst.Shape())
		}
	}
	if want := EncodedTensorBytes(dst); int64(len(chunk)) != want {
		return fmt.Errorf("nn: tensor chunk is %d bytes, a %v tensor takes %d", len(chunk), dst.Shape(), want)
	}
	vals := chunk[8+8*rank:]
	data := dst.Data()
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
	}
	return nil
}

// ParamBytes returns the serialised size of the layers' parameters at fp64,
// useful for the fleet simulation's model-transfer accounting.
func ParamBytes(layers []Layer) int64 {
	var total int64
	for _, l := range layers {
		for _, p := range l.Params() {
			total += int64(p.Count()) * 8
		}
	}
	return total
}
