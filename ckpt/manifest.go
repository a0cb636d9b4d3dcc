package ckpt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/edgeml/edgetrain/obs"
)

// ManifestName is the file inside a checkpoint directory that names the
// latest valid checkpoint and its predecessor.
const ManifestName = "MANIFEST"

// manifestHeader is the first line of a manifest file.
const manifestHeader = "edgetrain checkpoint manifest v1"

// Dir is a checkpoint directory: a MANIFEST plus numbered checkpoint files
// (ckpt-000001.ckpt, ckpt-000002.ckpt, ...). Saves are crash-safe — temp
// file, fsync, atomic rename, then an atomic manifest update — and at most
// the two newest checkpoints are kept, so a crash at any instant leaves
// either the new checkpoint fully published or the previous one intact.
//
// A Dir is not safe for concurrent use by multiple goroutines or processes;
// one training process owns its checkpoint directory. While a Saver is open
// on a Dir the saver's goroutine is that one user: the opener submits
// sessions to the saver and touches the Dir again only after Close. Open
// itself assumes ownership too — it reclaims crash leftovers, and another
// owner's write in flight looks like one — so a reader that wants to Load
// beside a running writer opens its own Dir before the writer starts.
type Dir struct {
	path string
	seq  int // sequence number of the next checkpoint file

	// Write-path buffers, allocated by the first Save and reused by every
	// later one (saves are serial): the frame scratch and the file buffer.
	scratch bytes.Buffer
	out     *bufio.Writer
}

// saveBufferBytes sizes the buffer between the frame encoder and the
// checkpoint file: small frames (a checkpoint has hundreds: biases,
// batch-norm vectors and their optimizer slots) leave in a few large writes,
// and a frame bigger than the buffer passes through without a copy.
const saveBufferBytes = 64 << 10

// manifest is the parsed content of a MANIFEST file.
type manifest struct {
	latest   string
	previous string
}

// Open prepares path as a checkpoint directory, creating it if needed. An
// existing manifest is honoured: subsequent Saves continue its sequence and
// Load resumes from its latest entry.
func Open(path string) (*Dir, error) {
	if path == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint directory path")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating checkpoint directory: %w", err)
	}
	d := &Dir{path: path, seq: 1}
	var m manifest
	mErr := func() error {
		var err error
		m, err = d.readManifest()
		return err
	}()
	if mErr == nil {
		if n, ok := seqOf(m.latest); ok && n >= d.seq {
			d.seq = n + 1
		}
		if n, ok := seqOf(m.previous); ok && n >= d.seq {
			d.seq = n + 1
		}
	} else if !os.IsNotExist(mErr) {
		return nil, mErr
	}
	// A crash mid-Save can leave a .tmp- file, or a fully renamed checkpoint
	// the manifest never came to reference. With a manifest present it alone
	// decides what exists, so reclaim the orphans' flash here (the devices
	// this targets measure free space in megabytes). WITHOUT a manifest the
	// checkpoint files are kept: they may be the valid survivors of a lost
	// or half-copied manifest, and deleting them would foreclose manual
	// recovery (the format is self-validating by sequence number + CRC).
	// Either way the sequence skips past everything present so a new Save
	// never collides.
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint directory: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(path, name)) // never durable; best-effort cleanup
			continue
		}
		if n, ok := seqOf(name); ok {
			if n >= d.seq {
				d.seq = n + 1
			}
			if mErr == nil && name != m.latest && name != m.previous {
				os.Remove(filepath.Join(path, name)) // best-effort orphan reclaim
			}
		}
	}
	return d, nil
}

// HasManifest reports whether path contains a checkpoint manifest — the
// cheap pre-flight check a command uses to reject a -resume path that was
// never checkpointed into, with a clear error instead of a failing load.
func HasManifest(path string) bool {
	info, err := os.Stat(filepath.Join(path, ManifestName))
	return err == nil && info.Mode().IsRegular()
}

// OpenResume resolves the conventional -resume/-checkpoint-dir flag pair of
// the training commands. A non-empty resumePath must already hold a manifest
// (rejected with a descriptive error otherwise — nothing is created); new
// checkpoints go to checkpointDir when given, else continue into the resume
// path. The returned resume Dir is nil when resumePath is empty, and save is
// nil when neither path is set; when both name the same directory one shared
// Dir is returned for both roles.
func OpenResume(resumePath, checkpointDir string) (resume, save *Dir, err error) {
	if resumePath != "" && !HasManifest(resumePath) {
		return nil, nil, fmt.Errorf("ckpt: no checkpoint manifest at %q (expected %s): nothing to resume from; checkpoint into the directory first",
			resumePath, ManifestName)
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

// checkpointName formats the file name of sequence number n.
func checkpointName(n int) string { return fmt.Sprintf("ckpt-%06d.ckpt", n) }

// seqOf parses the sequence number out of a checkpoint file name.
func seqOf(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "ckpt-%d.ckpt", &n); err != nil || n <= 0 {
		return 0, false
	}
	if name != checkpointName(n) {
		return 0, false
	}
	return n, true
}

// Save durably writes the session as the directory's newest checkpoint and
// returns its file name. The sequence is: write to a temp file in the same
// directory, fsync it, atomically rename it to its final name, fsync the
// directory, then update the manifest the same way. Only after the manifest
// rename is the new checkpoint "the latest"; a crash before that leaves the
// previous manifest — and the previous checkpoint — in force.
func (d *Dir) Save(s *Session) (string, error) {
	start := time.Now()
	name := checkpointName(d.seq)
	if err := d.writeAtomically(name, func(f *os.File) error {
		if d.out == nil {
			d.out = bufio.NewWriterSize(f, saveBufferBytes)
		} else {
			d.out.Reset(f)
		}
		if err := writeSession(d.out, s, &d.scratch); err != nil {
			return err
		}
		return d.out.Flush()
	}); err != nil {
		return "", err
	}

	// A missing or unreadable manifest contributes no previous entry: the
	// new checkpoint becomes the only referenced one. (Open refuses to build
	// a Dir over a malformed manifest, so in practice only "missing" occurs.)
	old, err := d.readManifest()
	if err != nil {
		old = manifest{}
	}
	next := manifest{latest: name, previous: old.latest}
	if err := d.writeAtomically(ManifestName, func(f *os.File) error {
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, manifestHeader)
		fmt.Fprintf(w, "latest %s\n", next.latest)
		if next.previous != "" {
			fmt.Fprintf(w, "previous %s\n", next.previous)
		}
		return w.Flush()
	}); err != nil {
		return "", err
	}
	d.seq++

	// Prune checkpoints the manifest no longer references. Removal is
	// best-effort cleanup — the durable state is already published.
	if old.previous != "" && old.previous != next.latest && old.previous != next.previous {
		os.Remove(filepath.Join(d.path, old.previous))
	}
	if reg := obs.Default(); reg != nil {
		reg.Counter("ckpt_saves_total", "Durable checkpoints published (manifest updated).").Inc()
		reg.Histogram("ckpt_save_seconds", "Latency of one durable checkpoint save (encode + fsync + rename + manifest).", nil).
			Observe(time.Since(start).Seconds())
	}
	return name, nil
}

// writeAtomically writes a file via temp + fsync + rename + directory fsync.
func (d *Dir) writeAtomically(name string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(d.path, ".tmp-"+name+"-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file for %s: %w", name, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(d.path, name)); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", name, err)
	}
	return d.syncDir()
}

// syncDir fsyncs the directory so renames are durable. Filesystems that do
// not support directory fsync (EINVAL/ENOTSUP/EPERM) are tolerated — the
// rename is still atomic, only its durability window widens — but a real
// I/O failure (a dying SD card reporting EIO) must surface: the caller was
// about to report a durable save.
func (d *Dir) syncDir() error {
	f, err := os.Open(d.path)
	if err != nil {
		return fmt.Errorf("ckpt: opening directory for sync: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) && !os.IsPermission(err) {
		return fmt.Errorf("ckpt: syncing directory: %w", err)
	}
	return nil
}

// readManifest parses the MANIFEST file. A missing file returns an error
// satisfying os.IsNotExist; a malformed file is reported as corrupt.
func (d *Dir) readManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile(filepath.Join(d.path, ManifestName))
	if err != nil {
		return m, err
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) < 2 || lines[0] != manifestHeader {
		return m, corruptf("malformed manifest in %s", d.path)
	}
	for _, line := range lines[1:] {
		key, value, ok := strings.Cut(line, " ")
		if !ok || value == "" || value != filepath.Base(value) {
			return m, corruptf("malformed manifest line %q in %s", line, d.path)
		}
		switch key {
		case "latest":
			m.latest = value
		case "previous":
			m.previous = value
		default:
			return m, corruptf("unknown manifest key %q in %s", key, d.path)
		}
	}
	if m.latest == "" {
		return m, corruptf("manifest in %s names no latest checkpoint", d.path)
	}
	return m, nil
}

// Latest returns the file name of the current checkpoint, or ErrNoCheckpoint
// if nothing was ever saved.
func (d *Dir) Latest() (string, error) {
	m, err := d.readManifest()
	if os.IsNotExist(err) {
		return "", ErrNoCheckpoint
	}
	if err != nil {
		return "", err
	}
	return m.latest, nil
}

// Load reads the newest loadable checkpoint: the manifest's latest entry,
// falling back to its predecessor when the latest file is corrupt, truncated
// or missing. It returns the session and the file name it was loaded from.
// With no manifest it returns ErrNoCheckpoint; with every referenced
// checkpoint unreadable it returns the latest file's error (wrapping
// ErrCorrupt for structural damage).
func (d *Dir) Load() (*Session, string, error) {
	start := time.Now()
	reg := obs.Default()
	loaded := func() {
		if reg == nil {
			return
		}
		reg.Counter("ckpt_loads_total", "Checkpoints successfully loaded.").Inc()
		reg.Histogram("ckpt_load_seconds", "Latency of one checkpoint load (read + decode + CRC verify).", nil).
			Observe(time.Since(start).Seconds())
	}
	m, err := d.readManifest()
	if os.IsNotExist(err) {
		return nil, "", ErrNoCheckpoint
	}
	if err != nil {
		return nil, "", err
	}
	s, err := d.loadFile(m.latest)
	if err == nil {
		loaded()
		return s, m.latest, nil
	}
	if m.previous != "" {
		if s, perr := d.loadFile(m.previous); perr == nil {
			reg.Counter("ckpt_load_fallbacks_total", "Loads that fell back to the previous checkpoint after an unreadable latest.").Inc()
			loaded()
			return s, m.previous, nil
		}
	}
	return nil, "", fmt.Errorf("ckpt: loading %s: %w", m.latest, err)
}

// loadFile reads and decodes one checkpoint file, with the same
// trailing-garbage strictness as Decode: a checkpoint file contains exactly
// one checkpoint.
func (d *Dir) loadFile(name string) (*Session, error) {
	f, err := os.Open(filepath.Join(d.path, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, err
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, corruptf("trailing bytes after the last frame of %s", name)
	}
	return s, nil
}
