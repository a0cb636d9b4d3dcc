package coord

// Durable coordinator state. With Config.StateDir set, the coordinator is no
// longer a single point of failure: every round boundary hands the global
// model, the global optimizer (all-reduce), the round cursor and the fleet
// membership with each slot's last committed worker state to the background
// ckpt.Saver, which writes it crash-safe through ckpt.Dir (a ring of three
// slot files, each save an in-place overwrite of the oldest and one fsync;
// Load falls back past a torn slot). The session views the global parameters
// and optimizer slots instead of copying them, and the next round waits for
// the write right before its fold, the one writer of them: the flash I/O
// overlaps broadcast and local training, and a failed write fails the run
// before that round commits.
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
	if s.Round > c.cfg.Rounds {
		return fmt.Errorf("coord: %s resumes at round %d but this run has only %d rounds", name, s.Round, c.cfg.Rounds)
	}
	if err := c.core.RestoreSession(s); err != nil {
		return fmt.Errorf("coord: restoring %s: %w", name, err)
	}
	c.startRound = s.Round
	c.resumed = s.Workers
	c.cfg.Logf("coord: resumed %s: continuing at round %d with %d checkpointed workers",
		name, s.Round, len(s.Workers))
	return nil
}

// sessionView assembles the coordinator's durable state with the given
// next-round cursor; its global tensors are views, valid until the next
// Core.Commit, which attemptRound fences with the saver's Wait.
func (c *Coordinator) sessionView(nextRound int, slots []slot) (*ckpt.Session, error) {
	s, err := c.core.SessionView(nextRound)
	if err != nil {
		return nil, err
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
