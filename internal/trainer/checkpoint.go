package trainer

import (
	"fmt"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/obs"
)

// Durable checkpoint/resume for single-node training. A checkpoint captures
// the full training state at an optimisation-step boundary — parameter
// values, batch-norm running statistics, optimizer state and the epoch/batch
// cursor — so a run killed at any instant resumes from its last durable
// checkpoint and finishes with weights bit-identical to an uninterrupted
// run. The one caveat is per-epoch statistics: the resumed epoch's
// EpochStats cover only the batches executed after the resume.

// Cursor locates a step boundary in a training run: the NEXT batch to
// execute. The zero Cursor is the start of training; Epoch == Cfg.Epochs
// marks a completed run.
type Cursor struct {
	Epoch int
	Batch int
}

// CheckpointPlan configures durable checkpointing for TrainFrom.
//
// Saves run in the background (see TrainFrom for the durability contract):
// for the duration of the TrainFrom call a ckpt.Saver owns Dir, so nothing
// else may Save into it, and a Hook that wants to read the directory opens
// its own ckpt.Dir on the same path, at any time. A save holds no second copy of the
// model: its session views the live parameters and optimizer slots, and only
// the layer state (batch-norm statistics), the RNG words and the cursors are
// copied. The next optimizer step waits for the write instead.
type CheckpointPlan struct {
	// Dir is the checkpoint directory; required.
	Dir *ckpt.Dir
	// EverySteps saves a checkpoint after every n optimisation steps
	// (counted from the start of this TrainFrom call). Zero saves only the
	// final completion checkpoint.
	EverySteps int
	// Seed is recorded in the session for provenance (the run's configured
	// random seed); it is not consumed on resume.
	Seed uint64
	// RNG, when non-nil, is a generator whose mid-stream state is captured
	// into every checkpoint (a data-augmentation or dropout generator the
	// run threads through its dataset). Restore it after ResumeFrom with
	// Session.ApplyRNG — Dir.Load exposes the full session. The core
	// training loop itself draws no randomness, so most runs leave it nil.
	RNG *tensor.RNG
}

// saverLane is the trace lane TrainFrom's background writer files its
// checkpoint-save spans under: beside the step loop's lane (-1), not on it,
// so a trace shows the write overlapping the next step. Worker slots are
// non-negative and -1 is the process-wide lane, so -2 collides with neither.
const saverLane = -2

// planSaver drives TrainFrom's checkpoints through the background saver:
// snapshot on the step loop, write off it, join before the next optimizer
// step writes the tensors the snapshot views.
type planSaver struct {
	t     *Trainer
	cp    *CheckpointPlan
	saver *ckpt.Saver

	steps     int
	stepStart time.Time     // when the step now running began (the previous afterStep's end)
	inFlight  bool          // a submitted save has not been joined
	stall     time.Duration // step-loop time the save in flight has cost so far
}

func newPlanSaver(t *Trainer, cp *CheckpointPlan) *planSaver {
	obs.DefaultTracer().NameLane(saverLane, "checkpoint-saver")
	return &planSaver{t: t, cp: cp, saver: ckpt.NewSaver(cp.Dir, saverLane), stepStart: time.Now()}
}

// join waits until the save in flight is durable and records what that save
// made the step loop wait in total: its capture, its hand-over and this wait.
func (ps *planSaver) join() error {
	if !ps.inFlight {
		return nil
	}
	start := time.Now()
	err := ps.saver.Wait()
	ps.inFlight = false
	obs.Default().Histogram("trainer_ckpt_stall_seconds",
		"Time the step loop waited on one TrainFrom checkpoint (snapshot + joining the background write).", nil).
		Observe((ps.stall + time.Since(start)).Seconds())
	if err != nil {
		return fmt.Errorf("trainer: checkpoint not durable: %w", err)
	}
	return nil
}

// snapshot joins the previous save, takes a view of the training state at
// cur (stamping the plan's seed and RNG state) and hands it to the writer. At
// most one snapshot exists at a time: the join comes before the view.
func (ps *planSaver) snapshot(cur Cursor) error {
	sp := obs.DefaultTracer().Span("checkpoint-snapshot", -1, -1)
	defer func() { sp.EndDetail(fmt.Sprintf("epoch=%d batch=%d", cur.Epoch, cur.Batch)) }()
	if err := ps.join(); err != nil {
		return err
	}
	captured := time.Now()
	s, err := ps.t.SessionView(cur)
	if err != nil {
		return err
	}
	s.Seed = ps.cp.Seed
	if ps.cp.RNG != nil {
		s.RNG = ckpt.CaptureRNG(ps.cp.RNG)
	}
	reg := obs.Default()
	err = ps.saver.Submit(s, func(string) {
		reg.Counter("trainer_ckpt_saves_total", "Checkpoints written by TrainFrom.").Inc()
		reg.Histogram("trainer_ckpt_save_seconds", "Latency of one TrainFrom checkpoint save (capture + encode + fsync), most of it off the step loop.", nil).
			Observe(time.Since(captured).Seconds())
	})
	if err != nil {
		return fmt.Errorf("trainer: checkpointing at %+v: %w", cur, err)
	}
	ps.inFlight, ps.stall = true, time.Since(captured)
	return nil
}

// afterStep is the step loop's hook after an optimizer step (which joined
// any save in flight): every EverySteps-th step takes the next save. With
// tracing on it also files the step just finished as a train-step span on
// the step loop's lane, so a trace shows each checkpoint-save against the
// step it overlaps.
func (ps *planSaver) afterStep(next Cursor) error {
	ps.steps++
	if tr := obs.DefaultTracer(); tr != nil {
		tr.Record(obs.Event{Name: "train-step", Round: -1, Worker: -1, Start: ps.stepStart, Dur: time.Since(ps.stepStart)})
		defer func() { ps.stepStart = time.Now() }()
	}
	if ps.cp.EverySteps > 0 && ps.steps%ps.cp.EverySteps == 0 {
		return ps.snapshot(next)
	}
	return nil
}

// close makes the last submitted save durable and stops the writer.
func (ps *planSaver) close() error {
	err := ps.join()
	ps.saver.Close() // joined above: only stops the goroutine
	return err
}

// SessionView assembles the durable training state at the given cursor.
// Parameter values and optimizer slots are views of the live tensors, valid
// until the next optimizer step; the layer state is copied, because the next
// forward pass updates it.
func (t *Trainer) SessionView(cur Cursor) (*ckpt.Session, error) {
	opt, err := OptimizerStateView(t.Cfg.Optimizer, t.Chain.Params())
	if err != nil {
		return nil, err
	}
	return &ckpt.Session{
		Kind:           "trainer",
		LibraryVersion: ckpt.LibraryVersion,
		Epoch:          cur.Epoch,
		Step:           cur.Batch,
		BatchSize:      t.Cfg.BatchSize,
		Params:         ckpt.ParamTensors(t.Chain.Params()),
		LayerState:     ckpt.CaptureLayerState(t.Chain.Stages),
		Opt:            opt,
	}, nil
}

// SaveCheckpoint durably writes the training state at the given cursor into
// the directory and returns the name of the slot file that holds it.
func (t *Trainer) SaveCheckpoint(d *ckpt.Dir, cur Cursor) (string, error) {
	s, err := t.SessionView(cur)
	if err != nil {
		return "", err
	}
	return d.Save(s)
}

// ResumeFrom restores the trainer from the directory's newest loadable
// checkpoint — parameters, layer state and optimizer state — and returns the
// cursor to continue from. The trainer's model and optimizer must match the
// checkpointed run (same constructor, same optimizer kind); mismatches fail
// with a descriptive error before any state is partially applied.
func (t *Trainer) ResumeFrom(d *ckpt.Dir) (Cursor, error) {
	s, name, err := d.Load()
	if err != nil {
		return Cursor{}, err
	}
	cur, err := t.RestoreSession(s)
	if err != nil {
		return Cursor{}, fmt.Errorf("trainer: restoring %s: %w", name, err)
	}
	return cur, nil
}

// RestoreSession applies a loaded session to the trainer and returns its
// cursor.
func (t *Trainer) RestoreSession(s *ckpt.Session) (Cursor, error) {
	if s.Kind != "trainer" {
		return Cursor{}, fmt.Errorf("trainer: checkpoint kind is %q, want \"trainer\"", s.Kind)
	}
	if s.Opt.Name != t.Cfg.Optimizer.Name() {
		// Checked before any weights are copied, so a wrong-optimizer resume
		// leaves the trainer untouched.
		return Cursor{}, fmt.Errorf("trainer: checkpoint has %q optimizer state but the run uses %q",
			s.Opt.Name, t.Cfg.Optimizer.Name())
	}
	if s.BatchSize != 0 && s.BatchSize != t.Cfg.BatchSize {
		// The Step cursor counts batches OF THE CHECKPOINTED SIZE; resuming
		// it under a different batch size would silently shift the resume
		// point inside the epoch.
		return Cursor{}, fmt.Errorf("trainer: checkpoint was written with batch size %d, this run uses %d",
			s.BatchSize, t.Cfg.BatchSize)
	}
	params := t.Chain.Params()
	if err := s.ApplyParams(params); err != nil {
		return Cursor{}, err
	}
	if err := s.ApplyLayerState(t.Chain.Stages); err != nil {
		return Cursor{}, err
	}
	if err := RestoreOptimizerState(t.Cfg.Optimizer, params, s.Opt); err != nil {
		return Cursor{}, err
	}
	return Cursor{Epoch: s.Epoch, Batch: s.Step}, nil
}

// TrainFrom runs training from the given cursor to the configured epoch
// count, saving durable checkpoints along the way when cp is non-nil: every
// cp.EverySteps optimisation steps and once at completion. It returns the
// per-epoch statistics of the epochs it executed (the first may cover only
// part of an epoch when resuming mid-epoch).
//
// A periodic save does not stop the step loop for the flash write, and it
// does not copy the model. At a save point the loop hands a SessionView of
// the training state to a background ckpt.Saver, which runs the ordinary
// crash-safe Dir.Save while the next step's forward and backward passes run;
// that step joins the write right before its optimizer update, the first
// write to the tensors the view shares. The contract: the checkpoint taken
// after step k is durable before step k+1 changes the weights, so a process
// killed at any instant resumes from its last save point, or from the one
// before it when the kill lands inside step k+1's forward or backward pass.
// A failed write surfaces in that step as TrainFrom's error, with the
// previous checkpoint still the newest loadable one. TrainFrom returns
// — normally, with an error, or unwinding a panic from the Hook — only after
// the last submitted save is durable; the completion checkpoint is durable
// on a nil return. SaveCheckpoint remains the synchronous form.
//
// Train is TrainFrom from the zero cursor with no checkpointing.
func (t *Trainer) TrainFrom(ds Dataset, start Cursor, cp *CheckpointPlan) (all []EpochStats, err error) {
	if start.Epoch < 0 || start.Batch < 0 {
		return nil, fmt.Errorf("trainer: negative resume cursor %+v", start)
	}
	if start.Epoch > t.Cfg.Epochs {
		// Writing the completion checkpoint below would rewind the cursor
		// beneath the weights' real progress; a checkpoint trained further
		// than this run's epoch budget must be rejected, not truncated.
		return nil, fmt.Errorf("trainer: resume cursor epoch %d exceeds the configured %d epochs", start.Epoch, t.Cfg.Epochs)
	}
	if cp != nil && cp.Dir == nil {
		return nil, fmt.Errorf("trainer: checkpoint plan without a directory")
	}
	if nb := ds.NumBatches(t.Cfg.BatchSize); start.Batch >= nb && nb > 0 && start.Epoch < t.Cfg.Epochs {
		return nil, fmt.Errorf("trainer: resume cursor batch %d out of range (epoch has %d batches)", start.Batch, nb)
	}

	var ps *planSaver
	if cp != nil {
		ps = newPlanSaver(t, cp)
		// Deferred so an error return and a panicking Hook also leave the
		// last submitted save durable before the Dir is the caller's again.
		defer func() {
			if cerr := ps.close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	for e := start.Epoch; e < t.Cfg.Epochs; e++ {
		sb := 0
		if e == start.Epoch {
			sb = start.Batch
		}
		st, err := t.trainEpoch(ds, e, sb, ps)
		if err != nil {
			return all, err
		}
		all = append(all, st)
	}
	if ps != nil {
		if err := ps.snapshot(Cursor{Epoch: t.Cfg.Epochs}); err != nil {
			return all, fmt.Errorf("trainer: writing completion checkpoint: %w", err)
		}
	}
	return all, nil
}
