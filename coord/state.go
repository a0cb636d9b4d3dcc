package coord

// Durable coordinator state. With Config.StateDir set, the coordinator is no
// longer a single point of failure: every round boundary snapshots the
// global model, the global optimizer (all-reduce), the round cursor and the
// fleet membership with each slot's last committed worker state, and hands
// the snapshot to the background ckpt.Saver, which writes it crash-safe
// through ckpt.Dir (temp file, fsync, atomic rename, MANIFEST fallback). The
// snapshot itself is cheap clones on the round path; the flash I/O overlaps
// the next round and blocks a fold only when flash is a whole round behind.
// A failed write fails the run at the following round boundary.
//
// A restarted coordinator opens the same StateDir, loads the newest loadable
// checkpoint, restores model + optimizer + cursor, and re-seats the
// checkpointed membership so reconnecting workers walk the ordinary rejoin
// path and recover their optimizer state from the welcome. Because a round's
// fold depends only on (broadcast parameters, worker optimizer state, round
// index), the resumed run's remaining rounds — including a re-run of a round
// whose checkpoint the crash swallowed — produce global weights
// byte-identical to a never-interrupted run.

import (
	"errors"
	"fmt"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// stateKind labels coordinator checkpoints so they are never resumed into a
// single-node trainer or an in-process fleet by accident (and vice versa).
const stateKind = "coord"

// openState opens Config.StateDir and, when it already holds a checkpoint,
// restores the coordinator from it: global parameters, layer state, global
// optimizer, round cursor and membership. A directory without a checkpoint
// is a fresh start; a checkpoint that fails validation is a loud error —
// silently training from round zero over a half-restored model is exactly
// the corruption this package exists to prevent.
func (c *Coordinator) openState() error {
	dir, err := ckpt.Open(c.cfg.StateDir)
	if err != nil {
		return err
	}
	c.stateDir = dir
	s, name, err := dir.Load()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("coord: loading state from %s: %w", c.cfg.StateDir, err)
	}
	if s.Kind != stateKind {
		return fmt.Errorf("coord: %s is a %q checkpoint, want %q", name, s.Kind, stateKind)
	}
	if s.Seed != c.cfg.Seed {
		return fmt.Errorf("coord: %s was written with seed %d, this run is configured with seed %d", name, s.Seed, c.cfg.Seed)
	}
	if s.BatchSize != c.cfg.BatchSize {
		return fmt.Errorf("coord: %s was written with batch size %d, this run is configured with %d", name, s.BatchSize, c.cfg.BatchSize)
	}
	h, hasGlobalOpt := c.agg.(fleet.GlobalOptimizerHolder)
	if !hasGlobalOpt && (s.Opt.Name != "" || s.Opt.Step != 0 || len(s.Opt.Slots) > 0) {
		return fmt.Errorf("coord: %s carries global %q optimizer state but aggregator %q has no global optimizer",
			name, s.Opt.Name, c.agg.Name())
	}
	if hasGlobalOpt && s.Opt.Name != h.GlobalOptimizer().Name() {
		return fmt.Errorf("coord: %s has global %q optimizer state but aggregator %q uses %q",
			name, s.Opt.Name, c.agg.Name(), h.GlobalOptimizer().Name())
	}
	if err := s.ApplyParams(c.globalPs); err != nil {
		return err
	}
	if err := s.ApplyLayerState(c.global.Stages); err != nil {
		return err
	}
	if hasGlobalOpt {
		if err := trainer.RestoreOptimizerState(h.GlobalOptimizer(), c.globalPs, s.Opt); err != nil {
			return fmt.Errorf("coord: restoring global optimizer state: %w", err)
		}
	}
	if s.Round > c.cfg.Rounds {
		return fmt.Errorf("coord: %s resumes at round %d but this run has only %d rounds", name, s.Round, c.cfg.Rounds)
	}
	c.startRound = s.Round
	c.resumed = s.Workers
	c.cfg.Logf("coord: resumed %s: continuing at round %d with %d checkpointed workers",
		name, s.Round, len(s.Workers))
	return nil
}

// captureSession snapshots the coordinator's durable state with the given
// next-round cursor. Runs on the round path, so everything mutable is
// cloned here: the saver writes this session while the next round runs.
func (c *Coordinator) captureSession(nextRound int, slots []slot) (*ckpt.Session, error) {
	s := &ckpt.Session{
		Kind:           stateKind,
		LibraryVersion: ckpt.LibraryVersion,
		Round:          nextRound,
		BatchSize:      c.cfg.BatchSize,
		Seed:           c.cfg.Seed,
		Params:         ckpt.CaptureParams(c.globalPs),
		LayerState:     ckpt.CaptureLayerState(c.global.Stages),
	}
	if h, ok := c.agg.(fleet.GlobalOptimizerHolder); ok {
		opt, err := trainer.CaptureOptimizerState(h.GlobalOptimizer(), c.globalPs)
		if err != nil {
			return nil, fmt.Errorf("coord: capturing global optimizer state: %w", err)
		}
		s.Opt = opt
	}
	for i := range slots {
		// Committed worker states are immutable once installed (commits
		// replace the pointer), so the session may alias them.
		if slots[i].state != nil {
			s.Workers = append(s.Workers, *slots[i].state)
		}
	}
	return s, nil
}
