package ckpt

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/edgeml/edgetrain/obs"
)

// Slot layout. A checkpoint directory holds slotCount slot files: a header
// in the first slotHeaderBytes, then one encoded session (Write's bytes).
// The header is, little-endian,
//
//	magic "EDGSLOT1" | uint32 slot version | uint32 payload CRC32 |
//	uint64 sequence | uint64 payload length | uint32 CRC32 of the 32 bytes before
//
// and bytes past the stated payload length are a longer earlier save's.
const (
	slotMagic       = "EDGSLOT1"
	slotVersion     = 1
	slotCount       = 3    // the two newest valid checkpoints and the one being written
	slotHeaderBytes = 4096 // a page of its own: the header's write shares no block with the payload
	slotHeaderLen   = 36
	saveBufferBytes = 64 << 10 // small frames leave in a few large writes; a bigger one passes through
)

var slotNames = [slotCount]string{"slot-0.ckpt", "slot-1.ckpt", "slot-2.ckpt"}

// Dir is a checkpoint directory: a ring of three slot files, each
// overwritten in place. A save goes into the slot that holds neither of the
// two newest valid checkpoints: the session after the header page, then the
// header, then one fsync of that file. Nothing is created after a slot's
// first save, nor renamed, truncated or unlinked, so a steady-state save
// allocates and frees no block. A crash tears at most the slot being
// written, and Load skips a slot whose header or payload CRC fails.
//
// One Dir (or the Saver that owns it) writes a directory. Open and Load
// write nothing, so other Dirs on the same path, in any process, may Load
// at any time, even with a save in flight.
type Dir struct {
	path string
	next uint64 // sequence number of the next save

	// held[i] is the sequence number of slot i's valid checkpoint (0: none);
	// exists[i] says its file is on disk: a save neither creates it nor
	// fsyncs the directory.
	held   [slotCount]uint64
	exists [slotCount]bool

	// Write-path buffers, allocated by the first Save and reused by every
	// later one (saves are serial): the frame scratch and the file buffer.
	scratch bytes.Buffer
	out     *bufio.Writer
}

type slotHeader struct {
	seq, length uint64
	crc         uint32
}

func (h slotHeader) encode() (b [slotHeaderLen]byte) {
	copy(b[:8], slotMagic)
	binary.LittleEndian.PutUint32(b[8:], slotVersion)
	binary.LittleEndian.PutUint32(b[12:], h.crc)
	binary.LittleEndian.PutUint64(b[16:], h.seq)
	binary.LittleEndian.PutUint64(b[24:], h.length)
	binary.LittleEndian.PutUint32(b[32:], crc32.ChecksumIEEE(b[:32]))
	return b
}

// readSlotHeader reads and verifies the header of an open slot file. ok is
// false for anything but a whole, self-consistent header: a short or zeroed
// file, a torn header write, another format.
func readSlotHeader(f *os.File) (h slotHeader, ok bool) {
	var b [slotHeaderLen]byte
	if _, err := f.ReadAt(b[:], 0); err != nil || string(b[:8]) != slotMagic ||
		binary.LittleEndian.Uint32(b[8:]) != slotVersion || binary.LittleEndian.Uint32(b[32:]) != crc32.ChecksumIEEE(b[:32]) {
		return h, false
	}
	h = slotHeader{
		crc:    binary.LittleEndian.Uint32(b[12:]),
		seq:    binary.LittleEndian.Uint64(b[16:]),
		length: binary.LittleEndian.Uint64(b[24:]),
	}
	return h, h.seq > 0 && h.length <= uint64(maxFrameBytes)
}

// summed is a writer that keeps the length and CRC32 of what it is given.
type summed struct {
	n   uint64
	crc uint32
}

func (s *summed) Write(p []byte) (int, error) {
	s.n += uint64(len(p))
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	return len(p), nil
}

func (h slotHeader) matches(s summed) bool { return s.n == h.length && s.crc == h.crc }

// Open prepares path as a checkpoint directory, creating it if needed, and
// reads its slots, so that later Saves continue the sequence and never
// overwrite one of the two newest valid checkpoints. It writes nothing into
// an existing directory, and refuses one in the earlier MANIFEST layout.
func Open(path string) (*Dir, error) {
	if path == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint directory path")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating checkpoint directory: %w", err)
	}
	if err := refuseLegacy(path); err != nil {
		return nil, err
	}
	d := &Dir{path: path, next: 1}
	for i, name := range slotNames {
		f, err := os.Open(filepath.Join(path, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: reading %s: %w", name, err)
		}
		d.exists[i] = true
		if h, ok := readSlotHeader(f); ok {
			d.next = max(d.next, h.seq+1) // a torn save's number is not reused either
			var sum summed
			if _, err := io.Copy(&sum, io.NewSectionReader(f, slotHeaderBytes, int64(h.length))); err == nil && h.matches(sum) {
				d.held[i] = h.seq
			}
		}
		f.Close()
	}
	return d, nil
}

// refuseLegacy refuses, by name, a directory holding a file of the MANIFEST
// layout this ring replaced: the manifest or a numbered ckpt-NNNNNN.ckpt.
func refuseLegacy(path string) error {
	entries, _ := os.ReadDir(path)
	for _, e := range entries {
		if name := e.Name(); name == "MANIFEST" || strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ckpt") {
			return fmt.Errorf("ckpt: %s holds %s: a checkpoint directory in the MANIFEST layout of earlier edgetrain versions, "+
				"which this version (a ring of slot files) does not read; checkpoint into a fresh directory", path, name)
		}
	}
	return nil
}

// HasCheckpoint reports whether path holds a slot file with a valid header:
// the cheap pre-flight check (no payload is read) a command uses to reject a
// -resume path that was never checkpointed into.
func HasCheckpoint(path string) bool {
	return readHeaders(path) != [slotCount]slotHeader{}
}

// OpenResume resolves the conventional -resume/-checkpoint-dir flag pair of
// the training commands. A non-empty resumePath must already hold a
// checkpoint (rejected with a descriptive error otherwise — nothing is
// created); new checkpoints go to checkpointDir when given, else continue
// into the resume path. The returned resume Dir is nil when resumePath is
// empty, and save is nil when neither path is set; when both name the same
// directory one shared Dir is returned for both roles.
func OpenResume(resumePath, checkpointDir string) (resume, save *Dir, err error) {
	if resumePath != "" && !HasCheckpoint(resumePath) {
		if err := refuseLegacy(resumePath); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("ckpt: no checkpoint at %q (no slot file with a valid header): nothing to resume from; checkpoint into the directory first",
			resumePath)
	}
	saveDir := checkpointDir
	if saveDir == "" {
		saveDir = resumePath
	}
	if saveDir != "" {
		if save, err = Open(saveDir); err != nil {
			return nil, nil, err
		}
	}
	switch {
	case resumePath == "":
	case resumePath == saveDir:
		resume = save
	default:
		if resume, err = Open(resumePath); err != nil {
			return nil, nil, err
		}
	}
	return resume, save, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Save durably writes the session as the directory's newest checkpoint, in
// place over the slot holding neither of the two newest valid ones, and
// returns the name of the slot file. A crash before it returns leaves those
// two intact.
func (d *Dir) Save(s *Session) (string, error) {
	start := time.Now()
	i := slices.Index(d.held[:], slices.Min(d.held[:])) // the oldest or an invalid slot
	seq := d.next
	d.next++
	d.held[i] = 0 // from its first byte written, the slot holds nothing valid
	if err := d.writeSlot(i, seq, s); err != nil {
		return "", fmt.Errorf("ckpt: saving %s: %w", slotNames[i], err)
	}
	d.held[i] = seq
	if reg := obs.Default(); reg != nil {
		reg.Counter("ckpt_saves_total", "Durable checkpoints written (slot file fsynced).").Inc()
		reg.Histogram("ckpt_save_seconds", "Latency of one durable checkpoint save (encode + write + one fsync).", nil).
			Observe(time.Since(start).Seconds())
	}
	return slotNames[i], nil
}

// writeSlot writes one save into slot i: the session after the header page,
// summed as it goes, then the header, then one fsync. The file is opened by
// path every time, so a vanished directory fails the save, and created only
// on the slot's first use, which alone fsyncs the directory too.
func (d *Dir) writeSlot(i int, seq uint64, s *Session) (err error) {
	flag := os.O_RDWR
	if !d.exists[i] {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(filepath.Join(d.path, slotNames[i]), flag, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var sum summed
	w := io.MultiWriter(io.NewOffsetWriter(f, slotHeaderBytes), &sum)
	if d.out == nil {
		d.out = bufio.NewWriterSize(w, saveBufferBytes)
	} else {
		d.out.Reset(w)
	}
	if err := writeSession(d.out, s, &d.scratch); err != nil {
		return err
	}
	if err := d.out.Flush(); err != nil {
		return err
	}
	head := slotHeader{seq: seq, length: sum.n, crc: sum.crc}.encode()
	if _, err := f.WriteAt(head[:], 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil || d.exists[i] {
		return err
	}
	if err := d.syncDir(); err != nil {
		return err
	}
	d.exists[i] = true
	return nil
}

// syncDir fsyncs the directory so a new slot file's entry is durable. A
// filesystem without directory fsync (EINVAL/ENOTSUP/EPERM) is tolerated; a
// real I/O failure (a dying SD card's EIO) fails the save.
func (d *Dir) syncDir() error {
	f, err := os.Open(d.path)
	if err != nil {
		return fmt.Errorf("opening directory for sync: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) && !os.IsPermission(err) {
		return fmt.Errorf("syncing directory: %w", err)
	}
	return nil
}

// readHeaders reads every slot's header in path (zero: missing or invalid).
func readHeaders(path string) (hs [slotCount]slotHeader) {
	for i, name := range slotNames {
		if f, err := os.Open(filepath.Join(path, name)); err == nil {
			if h, ok := readSlotHeader(f); ok {
				hs[i] = h
			}
			f.Close()
		}
	}
	return hs
}

// Load reads the newest loadable checkpoint — the slot with the highest
// sequence number whose header and payload CRC verify and whose payload
// decodes, else the next newest — and returns it with the slot file's name.
// With no valid header it returns ErrNoCheckpoint, with no loadable slot the
// newest one's error (wrapping ErrCorrupt for damaged bytes). When saves by
// another Dir overwrote every candidate meanwhile, it reads the headers again.
func (d *Dir) Load() (*Session, string, error) {
	start := time.Now()
	reg := obs.Default()
	hs := readHeaders(d.path)
	for {
		var order []int // slots with a valid header, newest first
		for i, h := range hs {
			if h.seq > 0 {
				order = append(order, i)
			}
		}
		if len(order) == 0 {
			return nil, "", ErrNoCheckpoint
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(hs[b].seq, hs[a].seq) })
		var first error
		for k, i := range order {
			s, err := d.loadSlot(i, hs[i])
			if err == nil {
				if k > 0 {
					reg.Counter("ckpt_load_fallbacks_total", "Loads that fell back to an older checkpoint after an unreadable newer one.").Inc()
				}
				reg.Counter("ckpt_loads_total", "Checkpoints successfully loaded.").Inc()
				reg.Histogram("ckpt_load_seconds", "Latency of one checkpoint load (read + decode + CRC verify).", nil).
					Observe(time.Since(start).Seconds())
				return s, slotNames[i], nil
			}
			if first == nil {
				first = fmt.Errorf("ckpt: loading %s: %w", slotNames[i], err)
			}
		}
		again := readHeaders(d.path)
		if again == hs {
			return nil, "", first
		}
		hs = again
	}
}

// loadSlot reads and decodes slot i, whose header read as h. The payload
// must decode to exactly its stated length and match its CRC32: every frame
// has its own CRC, but a torn save can leave a new header and meta frame in
// front of an older save's frames of the same layout, each still intact.
func (d *Dir) loadSlot(i int, h slotHeader) (*Session, error) {
	f, err := os.Open(filepath.Join(d.path, slotNames[i]))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Read takes each frame's 28-byte header in its own call: buffered, a
	// load reads the file in 64 KB pieces instead of a pread per header.
	var sum summed
	s, err := Read(io.TeeReader(bufio.NewReaderSize(io.NewSectionReader(f, slotHeaderBytes, int64(h.length)), 64<<10), &sum))
	if err != nil {
		return nil, err
	}
	if !h.matches(sum) {
		return nil, corruptf("payload of %d bytes sums to %#x, its header says %d bytes summing to %#x", sum.n, sum.crc, h.length, h.crc)
	}
	return s, nil
}
