// Package ckpt is the durable checkpoint format and crash-safe resume engine
// of the edgetrain library: a framed binary on-disk format that serializes a
// complete training session — model parameters, non-trainable layer state
// (batch-norm running statistics), optimizer state, RNG state, epoch/step/
// round cursors and the fleet's per-worker progress — so that training on a
// memory-poor, flaky, intermittently powered edge node survives preemption
// and power loss.
//
// # Format
//
// A checkpoint is a 16-byte header followed by a sequence of frames:
//
//	header : magic "EDGCKPT1" | uint32 version | uint32 frame count
//	frame  : uint32 type | uint32 style | uint64 encoded len |
//	         uint64 raw len | uint32 CRC32-IEEE | payload bytes
//
// All integers are little-endian. Each frame carries one logical unit of the
// session (one parameter tensor, one optimizer slot vector, one worker's
// progress, ...) and is protected by a CRC32 of its encoded payload. The
// style is per frame and chosen by whoever writes it: checkpoints are
// written raw (fp64 weights do not compress), the reader also accepts the
// DEFLATE frames of files written by earlier versions, and the one writer of
// DEFLATE frames left is a compress spec's "+deflate" stage. Frames are
// independent, so they decode in parallel (internal/parallel), and the
// streaming (io.Writer/io.Reader) and in-memory ([]byte) modes run the exact
// same code path, producing bit-identical bytes.
//
// # Durability
//
// Dir manages a checkpoint directory: a ring of three slot files. A Save
// overwrites, in place, the slot holding neither of the two newest valid
// checkpoints — payload, then a header with its sequence, length and CRC32
// — and fsyncs that one file. Load takes the newest slot whose CRCs verify,
// else the next newest, so a crash at any instant leaves a loadable one.
//
// Saver moves that write off the caller's loop: one background goroutine per
// open Dir runs the same Save on one session at a time, and hands the first
// write error back at the next Submit, Wait and Close. A session may view the
// caller's live parameters and optimizer slots; the caller waits for the
// write before it updates them again. The trainer's
// periodic saves and the coordinator's per-round state saves both go through
// it; what it changes is who waits for the fsync, never whether it happens.
//
// Any structural defect found while loading (bad magic, truncation, CRC
// mismatch, implausible lengths) is reported as an error wrapping ErrCorrupt,
// never a panic and never silently wrong tensors.
package ckpt

import (
	"errors"
	"fmt"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// LibraryVersion is the edgetrain release this tree builds; checkpoints
// record it for provenance.
const LibraryVersion = "2.3.0"

// ErrCorrupt is wrapped by every error that means the checkpoint bytes are
// structurally invalid: bad magic or version, a truncated stream, a CRC
// mismatch, an implausible length, or an inconsistent frame set. Dir.Load
// falls back to an older slot when the newest fails with it.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// ErrNoCheckpoint is returned by Dir.Load when no slot file in the directory
// holds a valid header (nothing was ever saved, or the path is not a
// checkpoint directory).
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint")

// corruptf builds an error wrapping ErrCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// NamedTensor pairs a tensor with the model-unique name it is stored under.
type NamedTensor struct {
	Name   string
	Tensor *tensor.Tensor
}

// OptSlot is one optimizer state vector: the per-parameter slot of a
// stateful optimizer (momentum velocity, Adam first/second moments), keyed
// by parameter name and slot name.
type OptSlot struct {
	Param string
	Slot  string
	Data  []float64
}

// OptimizerState is the serializable form of one optimizer's internal
// state. The zero value describes a stateless optimizer.
type OptimizerState struct {
	// Name is the optimizer identifier ("sgd", "momentum", "adam").
	Name string
	// Step is the optimizer's update counter (Adam's bias-correction step).
	Step int64
	// Slots are the per-parameter state vectors in a deterministic order
	// (parameter order, then slot name).
	Slots []OptSlot

	// declSlots is the slot count the optimizer meta frame declared; used
	// only while decoding, to detect lost or duplicated slot frames.
	declSlots int
}

// Clone returns a copy that owns its slot vectors, for a caller that keeps
// the state while the optimizer it came from steps on.
func (o OptimizerState) Clone() OptimizerState {
	o.Slots = append([]OptSlot(nil), o.Slots...)
	for i := range o.Slots {
		o.Slots[i].Data = append([]float64(nil), o.Slots[i].Data...)
	}
	return o
}

// WorkerState is one fleet worker's durable progress: everything a restarted
// process — or a dropped worker rejoining the fleet — needs to continue
// bit-identically. Model parameters are not part of it: every round starts by
// broadcasting the global parameters, so the only state a worker carries
// across rounds is its local optimizer.
type WorkerState struct {
	Index   int
	Name    string
	Rounds  int64 // rounds the worker participated in so far
	Samples int64 // samples the worker contributed so far
	Opt     OptimizerState
}

// Session is the complete training state a checkpoint serializes. Trainer
// and fleet sessions populate different subsets; unused fields stay zero and
// cost a few bytes.
type Session struct {
	// Kind labels the producer ("trainer", "fleet"); Load-side callers verify
	// it before restoring, so a fleet checkpoint is not resumed into a
	// single-node trainer by accident.
	Kind string
	// LibraryVersion records the edgetrain version that wrote the checkpoint
	// (informational; the binary format carries its own version).
	LibraryVersion string

	// Epoch, Step and Round are the resume cursors: the NEXT epoch/step/round
	// to execute, so saving after finishing step k stores k+1.
	Epoch int
	Step  int
	Round int
	// BatchSize is the batch size the Step cursor is measured in (and the
	// fleet's local batch size). Restore-side callers verify it: resuming a
	// batch-indexed cursor under a different batch size would silently shift
	// the resume point.
	BatchSize int

	// Seed is the run's configured random seed, and RNG the serialized state
	// words of the run's generator (tensor.RNG.State) when one is tracked.
	Seed uint64
	RNG  []uint64

	// Params are the model's trainable parameter values in parameter order.
	Params []NamedTensor
	// LayerState is the model's non-trainable state in layer order
	// (batch-norm running mean/variance).
	LayerState []NamedTensor
	// Opt is the (global or single-node) optimizer state.
	Opt OptimizerState
	// Workers is the fleet's per-worker progress, ascending by index.
	Workers []WorkerState

	// Frame counts the meta frame declared; used only while decoding, to
	// detect lost, duplicated or mistyped frames.
	declParams, declStates, declOptSlots, declWorkers int
}

// CaptureRNG serializes a generator's state words for the session's RNG
// field.
func CaptureRNG(r *tensor.RNG) []uint64 {
	st := r.State()
	return append([]uint64(nil), st[:]...)
}

// ApplyRNG restores a generator captured by CaptureRNG, so a resumed run's
// stochastic draws (data augmentation, dropout masks) continue the exact
// sequence of the interrupted one. A session without RNG state is an error
// only when a generator is expected.
func (s *Session) ApplyRNG(r *tensor.RNG) error {
	if len(s.RNG) != tensor.StateWords {
		return fmt.Errorf("ckpt: checkpoint carries %d RNG state words, want %d", len(s.RNG), tensor.StateWords)
	}
	var st [tensor.StateWords]uint64
	copy(st[:], s.RNG)
	r.SetState(st)
	return nil
}

// ParamTensors names the parameters' live value tensors, in parameter
// order. They are views, not copies: a session built from them must be
// written before anything updates the parameters again.
func ParamTensors(params []*nn.Param) []NamedTensor {
	out := make([]NamedTensor, 0, len(params))
	for _, p := range params {
		out = append(out, NamedTensor{Name: p.Name, Tensor: p.Value})
	}
	return out
}

// applyTensors is the shared two-phase restore: match every destination
// against the stored tensors by name and shape, require every stored tensor
// to be consumed, and only then copy — so a mismatch mid-list can never
// leave a half-restored model behind.
func applyTensors(what string, stored []NamedTensor, dst []NamedTensor) error {
	byName := make(map[string]*tensor.Tensor, len(stored))
	for _, nt := range stored {
		if _, dup := byName[nt.Name]; dup {
			return fmt.Errorf("ckpt: checkpoint has duplicate %s %q", what, nt.Name)
		}
		byName[nt.Name] = nt.Tensor
	}
	srcs := make([]*tensor.Tensor, len(dst))
	seen := make(map[string]bool, len(dst))
	for i, d := range dst {
		t, ok := byName[d.Name]
		if !ok || seen[d.Name] {
			return fmt.Errorf("ckpt: checkpoint is missing %s %q", what, d.Name)
		}
		if !t.SameShape(d.Tensor) {
			return fmt.Errorf("ckpt: %s %q has shape %v in the checkpoint but %v in the model",
				what, d.Name, t.Shape(), d.Tensor.Shape())
		}
		seen[d.Name] = true
		srcs[i] = t
	}
	if len(byName) > len(dst) {
		return fmt.Errorf("ckpt: checkpoint contains %d %ss the model does not have", len(byName)-len(dst), what)
	}
	for i, d := range dst {
		copy(d.Tensor.Data(), srcs[i].Data())
	}
	return nil
}

// ApplyParams copies the session's parameter values into the given
// parameters. Every parameter must be present under its name with an
// identical shape, and every stored tensor must be consumed, so resuming
// into a mismatched model fails loudly, and fails before any value is
// copied, never leaving half-restored weights.
func (s *Session) ApplyParams(params []*nn.Param) error {
	return applyTensors("parameter", s.Params, ParamTensors(params))
}

// CaptureLayerState snapshots the layers' non-trainable state tensors
// (nn.CollectState) as owned clones.
func CaptureLayerState(layers []nn.Layer) []NamedTensor {
	states := nn.CollectState(layers)
	out := make([]NamedTensor, 0, len(states))
	for _, st := range states {
		out = append(out, NamedTensor{Name: st.Name, Tensor: st.Tensor.Clone()})
	}
	return out
}

// ApplyLayerState copies the session's layer state back into the layers,
// with the same strict, copy-nothing-on-mismatch matching as ApplyParams.
func (s *Session) ApplyLayerState(layers []nn.Layer) error {
	states := nn.CollectState(layers)
	dst := make([]NamedTensor, 0, len(states))
	for _, st := range states {
		dst = append(dst, NamedTensor{Name: st.Name, Tensor: st.Tensor})
	}
	return applyTensors("layer state", s.LayerState, dst)
}
