package ckpt

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"sync"
)

// This file is the package's DEFLATE decoder (RFC 1951). compress/flate
// writes every DEFLATE frame and stays the reference in tests; reading goes
// through here because the update path decodes one ~700 KB frame per worker
// per round and compress/flate's reader pulls its input one byte at a time.
//
// The decoder accepts exactly the streams compress/flate's reader accepts:
// stored, fixed and dynamic blocks; HLIT ≤ 286 and HDIST ≤ 30; Huffman codes
// that are complete, or a single code of length 1; distances no further back
// than the output so far; anything after the final block ignored. Input is
// read through a 64-bit bit buffer refilled eight bytes at a time, and each
// symbol is one lookup in a 2^12-entry table (codes longer than 12 bits take
// a second lookup in a small link table).

const (
	tableBits = 12
	tableSize = 1 << tableBits
	tableMask = tableSize - 1

	// A table entry is sym<<5 | len (len 1..15), or a link into the link
	// table: off<<5 | entryLink, whose len field is 0. Zero is an invalid
	// code.
	entryLink = 1 << 4
	entryLen  = 15

	maxCodeLen = 15 // the longest Huffman code DEFLATE allows

	maxLitCodes  = 286 // HLIT bound, as compress/flate enforces it
	maxDistCodes = 30
	endOfBlock   = 256
)

// lengthBase and lengthExtra give the match length of lit/len symbols
// 257..285 (RFC 1951 §3.2.5).
var (
	lengthBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// codeLengthOrder is the order of the code-length code's lengths in a
// dynamic block header.
var codeLengthOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

var (
	errInflateEOF     = errors.New("unexpected end of DEFLATE stream")
	errInflateCorrupt = errors.New("corrupt DEFLATE stream")
	errInflateLong    = errors.New("more than the declared length")
)

// huffTable decodes one Huffman code.
type huffTable struct {
	prim     [tableSize]uint32
	link     []uint32
	linkMask uint32
}

// build fills the table for the canonical code with the given lengths (0:
// symbol unused). It returns false for a code compress/flate rejects: one
// that is over- or under-subscribed, unless it is a single code of length 1.
// An empty code is accepted; every lookup in it fails.
func (h *huffTable) build(lengths []uint8) bool {
	var count [16]int
	maxLen := 0
	for _, n := range lengths {
		if n != 0 {
			count[n]++
			maxLen = max(maxLen, int(n))
		}
	}
	if maxLen == 0 {
		h.prim = [tableSize]uint32{}
		return true
	}
	var next [16]int
	code := 0
	for n := 1; n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<maxLen {
		if code != 1 || maxLen != 1 {
			return false
		}
		// The one incomplete code accepted: half the entries stay invalid.
		h.prim = [tableSize]uint32{}
	}
	h.link = h.link[:0]
	if maxLen > tableBits {
		// Codes are canonical, so every 12-bit prefix from the first 13-bit
		// code's on heads a link table of 2^(maxLen-12) entries.
		sub := 1 << (maxLen - tableBits)
		h.linkMask = uint32(sub - 1)
		first := next[tableBits+1] >> 1
		for p := first; p < tableSize; p++ {
			h.prim[reverse(p, tableBits)] = uint32(len(h.link))<<5 | entryLink
			h.link = append(h.link, make([]uint32, sub)...)
		}
	}
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		r := reverse(next[n], int(n))
		next[n]++
		e := uint32(sym)<<5 | uint32(n)
		if n <= tableBits {
			for i := r; i < tableSize; i += 1 << n {
				h.prim[i] = e
			}
			continue
		}
		t := h.link[h.prim[r&tableMask]>>5:]
		for i := r >> tableBits; i <= int(h.linkMask); i += 1 << (int(n) - tableBits) {
			t[i] = e
		}
	}
	return true
}

// reverse returns the low n bits of c in reverse order: DEFLATE sends a
// Huffman code most significant bit first into a least-significant-first
// bit stream.
func reverse(c, n int) int { return int(bits.Reverse16(uint16(c)) >> (16 - n)) }

// fixedLit and fixedDist are the codes of a fixed-Huffman block. The fixed
// distance code has 32 five-bit symbols; 30 and 31 are rejected on use.
var fixedLit, fixedDist = func() (*huffTable, *huffTable) {
	var lit [288]uint8
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
	var dist [32]uint8
	for i := range dist {
		dist[i] = 5
	}
	l, d := new(huffTable), new(huffTable)
	l.build(lit[:])
	d.build(dist[:])
	return l, d
}()

// inflater holds one decode's state. Its tables are large, so inflaters are
// pooled and a decode allocates nothing beyond its output.
type inflater struct {
	in  []byte
	pos int    // next byte of in to load into bb
	bb  uint64 // bit buffer, next bit lowest
	nb  uint   // valid bits in bb

	out   []byte // out[:o] is the output so far; len(out) is its room
	o     int
	limit int // the declared raw length: the output may not exceed it

	lit, dist, lens huffTable
	lengths         [maxLitCodes + maxDistCodes]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes the DEFLATE stream src, which must produce exactly rawLen
// bytes, into dst's storage (nil allocates). The output grows the way fill's
// buffers do: geometrically and only as decoded bytes arrive, so a lying
// rawLen costs what the stream really holds. On error it returns the bytes
// decoded so far.
func inflate(dst, src []byte, rawLen int) ([]byte, error) {
	d := inflaters.Get().(*inflater)
	defer inflaters.Put(d)
	d.in, d.pos, d.bb, d.nb = src, 0, 0, 0
	d.out, d.o, d.limit = dst[:min(cap(dst), rawLen)], 0, rawLen
	err := d.run()
	out := d.out[:d.o]
	d.in, d.out = nil, nil
	if err == nil && len(out) != rawLen {
		err = io.ErrUnexpectedEOF
	}
	return out, err
}

func (d *inflater) run() error {
	for {
		h, err := d.bits(3)
		if err != nil {
			return err
		}
		switch h >> 1 {
		case 0:
			err = d.stored()
		case 1:
			err = d.huffman(fixedLit, fixedDist)
		case 2:
			if err = d.dynamic(); err == nil {
				err = d.huffman(&d.lit, &d.dist)
			}
		default:
			err = errInflateCorrupt
		}
		if err != nil || h&1 != 0 {
			return err
		}
	}
}

// refill tops the bit buffer up to at least 56 bits, or to what is left of
// the input. Bits above nb are zero or already the stream's own.
func (d *inflater) refill() {
	if d.pos+8 <= len(d.in) {
		d.bb |= binary.LittleEndian.Uint64(d.in[d.pos:]) << d.nb
		d.pos += int(63-d.nb) >> 3
		d.nb |= 56
		return
	}
	for d.nb <= 56 && d.pos < len(d.in) {
		d.bb |= uint64(d.in[d.pos]) << d.nb
		d.pos++
		d.nb += 8
	}
}

// bits takes the next n ≤ 32 bits of the stream.
func (d *inflater) bits(n uint) (uint64, error) {
	if d.nb < n {
		d.refill()
		if d.nb < n {
			return 0, errInflateEOF
		}
	}
	v := d.bb & (1<<n - 1)
	d.bb >>= n
	d.nb -= n
	return v, nil
}

// long resolves a primary entry whose length field is 0: a link to the
// entry of a code longer than tableBits, or an invalid code. It returns the
// entry and its code length (0: invalid).
func (h *huffTable) long(e uint32, bb uint64) (uint32, uint) {
	if e&entryLink != 0 {
		e = h.link[e>>5+uint32(bb>>tableBits)&h.linkMask]
	}
	return e, uint(e & entryLen)
}

// symErr is the error for a code of length n that could not be taken: an
// invalid one (n = 0) or one the input's end cuts off.
func symErr(n uint) error {
	if n == 0 {
		return errInflateCorrupt
	}
	return errInflateEOF
}

// sym decodes one symbol of h.
func (d *inflater) sym(h *huffTable) (int, error) {
	if d.nb < maxCodeLen {
		d.refill()
	}
	e, n := h.long(h.prim[d.bb&tableMask], d.bb)
	if n-1 >= d.nb {
		return 0, symErr(n)
	}
	d.bb >>= n
	d.nb -= n
	return int(e >> 5), nil
}

// room makes out hold at least o+n bytes, growing it as fill grows its
// buffers; it fails once the output would pass the declared length.
func (d *inflater) room(n int) error {
	need := d.o + n
	if need > d.limit {
		return errInflateLong
	}
	if need <= len(d.out) {
		return nil
	}
	size := min(d.limit, max(2*len(d.out), growthStep, need))
	grown := make([]byte, size)
	copy(grown, d.out[:d.o])
	d.out = grown
	return nil
}

// stored copies a stored block: byte-align, LEN and its complement, LEN
// bytes.
func (d *inflater) stored() error {
	d.bb >>= d.nb & 7
	d.nb -= d.nb & 7
	d.pos -= int(d.nb >> 3) // hand the whole bytes in the buffer back
	d.bb, d.nb = 0, 0
	if len(d.in)-d.pos < 4 {
		return errInflateEOF
	}
	n := int(binary.LittleEndian.Uint16(d.in[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.in[d.pos+2:]) {
		return errInflateCorrupt
	}
	d.pos += 4
	if len(d.in)-d.pos < n {
		// Copy what there is, so the error reports the bytes that arrived.
		n = len(d.in) - d.pos
		if err := d.room(n); err != nil {
			return err
		}
		d.o += copy(d.out[d.o:], d.in[d.pos:])
		return errInflateEOF
	}
	if err := d.room(n); err != nil {
		return err
	}
	d.o += copy(d.out[d.o:], d.in[d.pos:d.pos+n])
	d.pos += n
	return nil
}

// dynamic reads a dynamic block's header into d.lit and d.dist.
func (d *inflater) dynamic() error {
	h, err := d.bits(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return errInflateCorrupt
	}
	var cl [19]uint8
	for i := 0; i < nclen; i++ {
		v, err := d.bits(3)
		if err != nil {
			return err
		}
		cl[codeLengthOrder[i]] = uint8(v)
	}
	if !d.lens.build(cl[:]) {
		return errInflateCorrupt
	}
	lengths := d.lengths[:nlit+ndist]
	for i := 0; i < len(lengths); {
		x, err := d.sym(&d.lens)
		if err != nil {
			return err
		}
		if x < 16 {
			lengths[i] = uint8(x)
			i++
			continue
		}
		var rep int
		var val uint8
		var v uint64
		switch x {
		case 16:
			if i == 0 {
				return errInflateCorrupt
			}
			val = lengths[i-1]
			v, err = d.bits(2)
			rep = 3 + int(v)
		case 17:
			v, err = d.bits(3)
			rep = 3 + int(v)
		default:
			v, err = d.bits(7)
			rep = 11 + int(v)
		}
		if err != nil {
			return err
		}
		if i+rep > len(lengths) {
			return errInflateCorrupt
		}
		for ; rep > 0; rep-- {
			lengths[i] = val
			i++
		}
	}
	if !d.lit.build(lengths[:nlit]) || !d.dist.build(lengths[nlit:]) {
		return errInflateCorrupt
	}
	return nil
}

// huffman decodes one fixed or dynamic block's symbols up to its end of
// block: runs of literals in literals' tight loop, each length/distance
// pair and anything unusual here.
func (d *inflater) huffman(lit, dist *huffTable) error {
	for {
		sym, err := d.literals(lit)
		if err != nil {
			return err
		}
		if sym < 0 { // the output is full: take the next symbol here
			if sym, err = d.sym(lit); err != nil {
				return err
			}
			if sym < endOfBlock {
				if err := d.room(1); err != nil {
					return err
				}
				d.out[d.o] = byte(sym)
				d.o++
				continue
			}
		}
		if sym == endOfBlock {
			return nil
		}
		sym -= endOfBlock + 1
		if sym >= len(lengthBase) {
			return errInflateCorrupt
		}
		x, err := d.bits(uint(lengthExtra[sym]))
		if err != nil {
			return err
		}
		length := int(lengthBase[sym]) + int(x)
		if sym, err = d.sym(dist); err != nil {
			return err
		}
		if sym >= len(distBase) {
			return errInflateCorrupt
		}
		if x, err = d.bits(uint(distExtra[sym])); err != nil {
			return err
		}
		distance := int(distBase[sym]) + int(x)
		if distance > d.o {
			return errInflateCorrupt
		}
		if err := d.room(length); err != nil {
			return err
		}
		out, o := d.out, d.o
		d.o += length
		if distance >= length {
			copy(out[o:o+length], out[o-distance:])
			continue
		}
		// Overlapping: the output repeats with period distance, so copy from
		// the fixed source in spans that double.
		for end, src := o+length, o-distance; o < end; {
			o += copy(out[o:end], out[src:o])
		}
	}
}

// literals is the hot loop. It decodes symbols of lit into the output while
// they are literals and the output has room, and returns the first symbol
// that is not a literal, or -1 when the output is full. Its state lives in
// locals so that it stays in registers; the bit buffer is refilled eight
// bytes at a time while eight bytes of input remain.
func (d *inflater) literals(lit *huffTable) (int, error) {
	in, pos, bb, nb := d.in, d.pos, d.bb, d.nb
	out, o := d.out, d.o
	sym, err := -1, error(nil)
	for o < len(out) {
		if nb < maxCodeLen {
			if pos+8 <= len(in) {
				bb |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for nb <= 56 && pos < len(in) {
					bb |= uint64(in[pos]) << nb
					pos++
					nb += 8
				}
			}
		}
		e := lit.prim[bb&tableMask]
		n := uint(e & entryLen)
		if n-1 >= nb { // a link (n = 0), an invalid code, or the input's end
			if e, n = lit.long(e, bb); n-1 >= nb {
				err = symErr(n)
				break
			}
		}
		bb >>= n & 63 // n < 16: the mask spares the compiler a range check
		nb -= n
		if e >= endOfBlock<<5 {
			sym = int(e >> 5)
			break
		}
		out[o] = byte(e >> 5)
		o++
	}
	d.pos, d.bb, d.nb, d.o = pos, bb, nb, o
	return sym, err
}
