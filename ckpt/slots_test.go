package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sessionAt is the sample session at a given step, with every tensor,
// optimizer value and worker count shifted by it: two steps encode to the
// same frame layout with different bytes in every frame.
func sessionAt(step int) *Session {
	s := sampleSession()
	s.Step = step
	shift := func(d []float64) {
		for i := range d {
			d[i] += float64(step)
		}
	}
	for _, nt := range slices.Concat(s.Params, s.LayerState) {
		shift(nt.Tensor.Data())
	}
	for _, sl := range s.Opt.Slots {
		shift(sl.Data)
	}
	for i := range s.Workers {
		s.Workers[i].Samples += int64(step)
		for _, sl := range s.Workers[i].Opt.Slots {
			shift(sl.Data)
		}
	}
	return s
}

// slotFiles lists the directory's entries by name.
func slotFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// loadStep opens a fresh Dir on path and returns the step of what it loads
// and the slot it came from.
func loadStep(t *testing.T, path string) (int, string) {
	t.Helper()
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, name, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	return s.Step, name
}

func TestLoadEmptyDirectory(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := d.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load on empty dir: want ErrNoCheckpoint, got %v", err)
	}
}

func TestHasCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if HasCheckpoint(dir) {
		t.Fatal("HasCheckpoint true on empty directory")
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := d.Save(sampleSession()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("HasCheckpoint false after a Save")
	}
	if HasCheckpoint(filepath.Join(dir, "nope")) {
		t.Fatal("HasCheckpoint true on a missing directory")
	}
}

// TestSaveOverwritesSlotsInPlace saves ten times: the directory holds
// exactly the three slot files, written in ring order, each the same file
// (inode) from its first save to the last, and Load returns the last save.
func TestSaveOverwritesSlotsInPlace(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]os.FileInfo{}
	for i := 0; i < 10; i++ {
		name, err := d.Save(sessionAt(i))
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		if want := slotNames[i%slotCount]; name != want {
			t.Fatalf("save %d went into %s, want %s", i, name, want)
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if was, ok := first[name]; !ok {
			first[name] = info
		} else if !os.SameFile(was, info) {
			t.Fatalf("save %d replaced %s with a new file", i, name)
		}
	}
	if got := slotFiles(t, dir); !slices.Equal(got, slotNames[:]) {
		t.Fatalf("directory holds %v, want exactly %v", got, slotNames)
	}
	if step, name := loadStep(t, dir); step != 9 || name != slotNames[0] {
		t.Fatalf("Load returned step %d from %s, want step 9 from %s", step, name, slotNames[0])
	}
}

// TestReopenContinuesSequence reopens a directory mid-ring: the next save
// continues the sequence and overwrites the slot holding the oldest of the
// three checkpoints, never one of the two newest.
func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ { // slots 0, 1, 2, 0
		if _, err := d.Save(sessionAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	name, err := d2.Save(sessionAt(5))
	if err != nil {
		t.Fatalf("Save after reopen: %v", err)
	}
	if name != slotNames[1] {
		t.Fatalf("save after reopen went into %s, want %s (the oldest checkpoint's slot)", name, slotNames[1])
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if h, ok := readSlotHeader(f); !ok || h.seq != 5 {
		t.Fatalf("save after reopen has header %+v (valid %v), want sequence 5", h, ok)
	}
	if step, from := loadStep(t, dir); step != 5 || from != name {
		t.Fatalf("Load returned step %d from %s, want step 5 from %s", step, from, name)
	}
}

// TestTornSaveResumesNewestIntact tears the save in flight at every frame
// boundary, one byte either side, and mid-frame, with the old header still
// in place or the new one already written: resume returns the newest intact
// save, and the next save overwrites the torn slot, not an intact one.
func TestTornSaveResumesNewestIntact(t *testing.T) {
	src := t.TempDir()
	d, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var base [slotCount][]byte // the ring after saves 1..3, one per slot
	for i := 1; i <= 3; i++ {
		if _, err := d.Save(sessionAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range slotNames {
		if base[i], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			t.Fatal(err)
		}
	}
	name, err := d.Save(sessionAt(4)) // overwrites save 1 in slot 0
	if err != nil || name != slotNames[0] {
		t.Fatalf("save 4 went into %s (%v), want %s", name, err, slotNames[0])
	}
	done, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		t.Fatal(err)
	}
	payload := done[slotHeaderBytes:]
	if len(done) != len(base[0]) {
		t.Fatalf("equal layouts wrote %d and %d bytes", len(base[0]), len(done))
	}

	bounds := frameBoundaries(t, payload)
	cuts := map[int]bool{}
	for k, off := range bounds {
		for _, cut := range []int{off - 1, off, off + 1} {
			if cut >= 0 && cut <= len(payload) {
				cuts[cut] = true
			}
		}
		if k > 0 {
			cuts[(bounds[k-1]+off)/2] = true
		}
	}
	cuts[len(payload)] = true

	for _, newHeader := range []bool{false, true} {
		for cut := range cuts {
			torn := slices.Clone(base[0])
			copy(torn[slotHeaderBytes:], payload[:cut])
			if newHeader {
				copy(torn, done[:slotHeaderBytes])
			}
			dir := t.TempDir()
			for i, name := range slotNames {
				b := base[i]
				if i == 0 {
					b = torn
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			complete := bytes.Equal(torn, done) // a cut past the last differing byte tore nothing
			wantStep, wantVictim := 3, slotNames[0]
			if complete {
				wantStep, wantVictim = 4, slotNames[1]
			}
			if step, from := loadStep(t, dir); step != wantStep {
				t.Fatalf("new header %v, cut at %d of %d: resumed step %d from %s, want step %d",
					newHeader, cut, len(payload), step, from, wantStep)
			}
			d, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			victim, err := d.Save(sessionAt(5))
			if err != nil {
				t.Fatal(err)
			}
			if victim != wantVictim {
				t.Fatalf("new header %v, cut at %d: the next save overwrote %s, want %s", newHeader, cut, victim, wantVictim)
			}
			if step, _ := loadStep(t, dir); step != 5 {
				t.Fatalf("new header %v, cut at %d: after the next save Load returned step %d, want 5", newHeader, cut, step)
			}
		}
	}
}

// TestMixedFramesRejected builds the slot a crash mid-fsync can leave: the
// new header and the new meta frame over the older save's parameter frames.
// Every frame passes its own CRC and the payload decodes, so only the
// whole-payload CRC tells; Load must reject the slot and fall back.
func TestMixedFramesRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := d.Save(sessionAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, slotNames[0])
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Save(sessionAt(4)); err != nil {
		t.Fatal(err)
	}
	mixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaEnd := slotHeaderBytes + frameBoundaries(t, mixed[slotHeaderBytes:])[3] // header, meta frame header, meta payload
	copy(mixed[metaEnd:], old[metaEnd:])
	s, err := Decode(mixed[slotHeaderBytes:])
	if err != nil {
		t.Fatalf("the mixed payload does not decode (%v): the test no longer builds the case it pins", err)
	}
	if s.Step != 4 || s.Params[0].Tensor.Data()[0] != sessionAt(1).Params[0].Tensor.Data()[0] {
		t.Fatalf("the mixed payload decodes to step %d with save 1's weights %v, want step 4 over save 1's weights", s.Step, s.Params[0].Tensor.Data()[0])
	}
	if err := os.WriteFile(path, mixed, 0o644); err != nil {
		t.Fatal(err)
	}
	if step, from := loadStep(t, dir); step != 3 {
		t.Fatalf("Load returned step %d from %s, want the intact step 3", step, from)
	}
}

// TestShorterSaveOverLongerLoads overwrites a slot holding a long save with a
// shorter one: the file keeps its length (nothing truncates), the bytes past
// the new payload are ignored, and Load returns the short save.
func TestShorterSaveOverLongerLoads(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	long := sessionAt(1)
	long.Params = append(long.Params, NamedTensor{Name: "extra", Tensor: sessionAt(2).Params[0].Tensor})
	for i := 0; i < slotCount; i++ {
		if _, err := d.Save(long); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(filepath.Join(dir, slotNames[0]))
	if err != nil {
		t.Fatal(err)
	}
	short := sessionAt(7)
	name, err := d.Save(short)
	if err != nil || name != slotNames[0] {
		t.Fatalf("short save went into %s (%v), want %s", name, err, slotNames[0])
	}
	after, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("the slot went from %d to %d bytes, want it untruncated", before.Size(), after.Size())
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, from, err := d2.Load()
	if err != nil || from != name {
		t.Fatalf("Load: %s, %v; want %s", from, err, name)
	}
	sessionsEqual(t, short, s)
}

// TestZeroedOrHeaderOnlySlotSkipped damages the newest slot two ways a
// crash or a bad card can: all zeros (no header at all), and a valid header
// with nothing after it. Load skips it to the previous save, and the next
// save overwrites it.
func TestZeroedOrHeaderOnlySlotSkipped(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"zeroed", func(b []byte) []byte { return make([]byte, len(b)) }},
		{"header only", func(b []byte) []byte { return b[:slotHeaderBytes] }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var name string
			for i := 1; i <= 3; i++ {
				if name, err = d.Save(sessionAt(i)); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(dir, name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mut(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if step, from := loadStep(t, dir); step != 2 {
				t.Fatalf("Load returned step %d from %s, want step 2", step, from)
			}
			d2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if victim, err := d2.Save(sessionAt(4)); err != nil || victim != name {
				t.Fatalf("the next save went into %s (%v), want the damaged %s", victim, err, name)
			}
			if step, _ := loadStep(t, dir); step != 4 {
				t.Fatalf("after the next save Load returned step %d, want 4", step)
			}
		})
	}
}

// TestMalformedManifest: a directory in the earlier MANIFEST layout — any
// manifest, well-formed or not, or a numbered checkpoint file alone — is
// refused by name, by Open and by OpenResume, and left as it was.
func TestMalformedManifest(t *testing.T) {
	for _, c := range []struct{ file, content string }{
		{"MANIFEST", ""},
		{"MANIFEST", "edgetrain checkpoint manifest v1\nlatest ckpt-000002.ckpt\nprevious ckpt-000001.ckpt\n"},
		{"MANIFEST", "edgetrain checkpoint manifest v1\nlatest ../../etc/passwd\n"},
		{"ckpt-000001.ckpt", "EDGCKPT1"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.file), []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), c.file) {
			t.Fatalf("%s %q: Open returned %v, want a refusal naming it", c.file, c.content, err)
		}
		if _, _, err := OpenResume(dir, ""); err == nil || !strings.Contains(err.Error(), "MANIFEST layout") {
			t.Fatalf("%s %q: OpenResume returned %v, want a refusal naming the layout", c.file, c.content, err)
		}
		if got := slotFiles(t, dir); !slices.Equal(got, []string{c.file}) {
			t.Fatalf("refusing %s left %v in the directory", c.file, got)
		}
	}
}

// TestOpenBesideSaveWritesNothing runs saves on one goroutine beside a loop
// that opens a second Dir on the same path and loads through it. Open and
// Load write nothing, so no save fails, and every Load returns one of the
// saved checkpoints, intact.
func TestOpenBesideSaveWritesNothing(t *testing.T) {
	const saves = 200
	path := t.TempDir()
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Save(sessionAt(0)); err != nil {
		t.Fatal(err)
	}
	want := make([]*Session, saves+1) // built up front: the reader only reads them
	for i := range want {
		want[i] = sessionAt(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loads int
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, err := Open(path)
			if err != nil {
				readErr = err
				return
			}
			s, name, err := r.Load()
			if err != nil {
				readErr = err
				return
			}
			if s.Step < 0 || s.Step > saves {
				readErr = errors.New(name + " holds a step that was never saved")
				return
			}
			if a, b := s.Params[0].Tensor.Data()[0], want[s.Step].Params[0].Tensor.Data()[0]; a != b {
				readErr = errors.New(name + " holds another save's weights")
				return
			}
			loads++
		}
	}()
	failed := 0
	for i := 1; i <= saves; i++ {
		if _, err := d.Save(want[i]); err != nil {
			failed++
			t.Errorf("save %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if failed != 0 {
		t.Fatalf("%d of %d saves failed beside a reader", failed, saves)
	}
	if readErr != nil {
		t.Fatalf("after %d loads beside the writer: %v", loads, readErr)
	}
	if loads == 0 {
		t.Fatal("the reader never loaded")
	}
	s, _, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	sessionsEqual(t, want[saves], s)
}
