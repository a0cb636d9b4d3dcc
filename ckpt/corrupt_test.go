package ckpt

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// frameBoundaries returns every structural offset of an encoded checkpoint:
// the end of the file header and the start/payload-start/end of every frame.
func frameBoundaries(t *testing.T, b []byte) []int {
	t.Helper()
	offsets := []int{0, headerBytes}
	count := binary.LittleEndian.Uint32(b[12:])
	off := headerBytes
	for i := uint32(0); i < count; i++ {
		if off+FrameHeaderBytes > len(b) {
			t.Fatalf("frame %d header at %d overruns %d bytes", i, off, len(b))
		}
		encLen := int(binary.LittleEndian.Uint64(b[off+8:]))
		offsets = append(offsets, off+FrameHeaderBytes, off+FrameHeaderBytes+encLen)
		off += FrameHeaderBytes + encLen
	}
	if off != len(b) {
		t.Fatalf("frames end at %d, file has %d bytes", off, len(b))
	}
	return offsets
}

// decodeExpectingCorrupt asserts that decoding fails with ErrCorrupt — and
// in particular neither panics nor succeeds with silently wrong content.
func decodeExpectingCorrupt(t *testing.T, what string, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decode panicked: %v", what, r)
		}
	}()
	s, err := Decode(data)
	if err == nil {
		t.Fatalf("%s: decode succeeded on corrupt bytes (session kind %q)", what, s.Kind)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: error does not wrap ErrCorrupt: %v", what, err)
	}
}

// TestTruncationAtEveryFrameBoundary chops a valid checkpoint at every
// structural boundary (and one byte around each) and asserts the loader
// reports ErrCorrupt.
func TestTruncationAtEveryFrameBoundary(t *testing.T) {
	for _, style := range []struct {
		name  string
		style uint32
	}{{"raw", StyleRaw}, {"deflate", StyleDeflate}} {
		t.Run(style.name, func(t *testing.T) {
			b, err := encodeStyle(sampleSession(), style.style)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			cuts := map[int]bool{}
			for _, off := range frameBoundaries(t, b) {
				for _, cut := range []int{off - 1, off, off + 1} {
					if cut >= 0 && cut < len(b) {
						cuts[cut] = true
					}
				}
			}
			for cut := range cuts {
				decodeExpectingCorrupt(t, "truncated", b[:cut])
			}
		})
	}
}

// TestFlipEveryByte flips one byte at every offset of a valid checkpoint and
// asserts the loader detects every single flip with a typed ErrCorrupt —
// never a panic, never silently wrong content. Header fields are validated
// structurally and every payload byte is covered by its frame's CRC32, so
// no offset escapes.
func TestFlipEveryByte(t *testing.T) {
	for _, style := range []struct {
		name  string
		style uint32
	}{{"raw", StyleRaw}, {"deflate", StyleDeflate}} {
		t.Run(style.name, func(t *testing.T) {
			orig := sampleSession()
			b, err := encodeStyle(orig, style.style)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			for off := 0; off < len(b); off++ {
				mut := append([]byte(nil), b...)
				mut[off] ^= 0x5A
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("flip at %d: decode panicked: %v", off, r)
						}
					}()
					s, err := Decode(mut)
					if err == nil {
						t.Fatalf("flip at offset %d of %d went undetected", off, len(b))
					}
					_ = s
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("flip at %d: error does not wrap ErrCorrupt: %v", off, err)
					}
				}()
			}
		})
	}
}

// TestLoadFallsBackToPrevious damages the slot holding the newest
// checkpoint — a flipped payload byte, a truncated file, a removed file —
// and asserts Load falls back to the previous one.
func TestLoadFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	first := sampleSession()
	first.Step = 10
	name1, err := d.Save(first)
	if err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	second := sampleSession()
	second.Step = 20
	name2, err := d.Save(second)
	if err != nil {
		t.Fatalf("Save 2: %v", err)
	}
	if name1 == name2 {
		t.Fatalf("both saves went into %s", name1)
	}

	corruptions := []struct {
		name string
		mut  func(path string) error
	}{
		{"byte flip", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[slotHeaderBytes+(len(b)-slotHeaderBytes)/2] ^= 0xFF
			return os.WriteFile(path, b, 0o644)
		}},
		{"truncation", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)*2/3], 0o644)
		}},
		{"removal", os.Remove},
	}
	latest := filepath.Join(dir, name2)
	pristine, err := os.ReadFile(latest)
	if err != nil {
		t.Fatalf("reading latest: %v", err)
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			if err := c.mut(latest); err != nil {
				t.Fatalf("injecting %s: %v", c.name, err)
			}
			defer os.WriteFile(latest, pristine, 0o644)
			s, from, err := d.Load()
			if err != nil {
				t.Fatalf("Load after %s of latest: %v", c.name, err)
			}
			if from != name1 {
				t.Fatalf("Load after %s used %s, want fallback to %s", c.name, from, name1)
			}
			if s.Step != first.Step {
				t.Fatalf("fallback session has step %d, want %d", s.Step, first.Step)
			}
		})
	}

	// With both checkpoints corrupted the error must be typed, not a panic
	// or a bogus session.
	if err := corruptions[0].mut(latest); err != nil {
		t.Fatalf("corrupting latest: %v", err)
	}
	if err := corruptions[0].mut(filepath.Join(dir, name1)); err != nil {
		t.Fatalf("corrupting previous: %v", err)
	}
	if _, _, err := d.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with both corrupt: want ErrCorrupt, got %v", err)
	}
}
