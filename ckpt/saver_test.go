package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestEncodeGolden pins the raw-style bytes of the sample session to the
// hash the format produced before the encoder streamed its frames, and the
// payload of the slot a Dir writes — through its reused buffers, twice — to
// Encode's bytes.
func TestEncodeGolden(t *testing.T) {
	const golden = "b675e2c19083447f647a52fb353fcdea5291d0b65d191b0743140be7357da3b2"
	s := sampleSession()
	want, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(want); hex.EncodeToString(sum[:]) != golden {
		t.Fatalf("Encode(sampleSession()) hashes to %x, want %s: the on-disk format changed", sum, golden)
	}
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		name, err := d.Save(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(d.Path(), name))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < slotHeaderBytes || !bytes.Equal(got[slotHeaderBytes:], want) {
			t.Fatalf("%s's payload differs from Encode's bytes (%d vs %d bytes)", name, len(got)-slotHeaderBytes, len(want))
		}
	}
}

// TestSaverWritesInOrder submits sessions back to back: each Submit joins
// the write before it, the callbacks see the three slots in ring order, the
// last one is what Load returns after Close, and the writer goroutine is
// gone.
func TestSaverWritesInOrder(t *testing.T) {
	baseline := runtime.NumGoroutine()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSaver(d, -1)
	var names []string
	for round := 1; round <= 3; round++ {
		s := sampleSession()
		s.Round = round
		// The callback runs on the writer goroutine; the next Submit (or
		// Close) joins that write before this goroutine reads names again.
		if err := sv.Submit(s, func(name string) { names = append(names, name) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if len(names) != 3 || names[0] >= names[1] || names[1] >= names[2] {
		t.Fatalf("saved callbacks saw %v, want three ascending checkpoint names", names)
	}
	s, name, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if name != names[2] || s.Round != 3 {
		t.Fatalf("Load after Close: %s round %d, want %s round 3", name, s.Round, names[2])
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before NewSaver", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSaverErrorIsSticky takes the directory away under an open saver: the
// session in flight is accepted (the write has not failed yet), its error
// comes back from the next Submit — which takes no further session — and
// from Close, and Load still returns the checkpoint written before.
func TestSaverErrorIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSaver(d, -1)
	good := sampleSession()
	good.Round = 1
	if err := sv.Submit(good, nil); err != nil {
		t.Fatal(err)
	}
	if err := sv.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, path+".gone"); err != nil {
		t.Fatal(err)
	}
	lost := sampleSession()
	lost.Round = 2
	called := false
	if err := sv.Submit(lost, func(string) { called = true }); err != nil {
		t.Fatalf("Submit reported %v before its write could have failed", err)
	}
	err = sv.Submit(sampleSession(), func(string) { called = true })
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Submit after a failed write returned %v, want the write's error", err)
	}
	if cerr := sv.Close(); cerr != err {
		t.Fatalf("Close returned %v, want the first write error %v", cerr, err)
	}
	if called {
		t.Fatal("saved callback ran for a session that never became durable")
	}
	if err := os.Rename(path+".gone", path); err != nil {
		t.Fatal(err)
	}
	s, _, err := d.Load()
	if err != nil {
		t.Fatalf("Load after the failed saves: %v", err)
	}
	if s.Round != 1 {
		t.Fatalf("Load after the failed saves: round %d, want the checkpoint of round 1", s.Round)
	}
}
