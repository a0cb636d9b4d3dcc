package fleet

import (
	"fmt"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// Durable round checkpoints and elastic resume. A fleet checkpoint captures
// the state that persists across rounds: the global model parameters, the
// global optimizer's state (gradient all-reduce), each worker's local
// optimizer state (FedAvg momentum/Adam), per-worker progress counters and
// the next round to run. Everything else is reconstructed per round — every
// participant starts a round by downloading the global parameters, and all
// stochastic fleet decisions are drawn from a generator derived only from
// (seed, round) — so a restarted process resumes from the last durable round
// bit-identical to a never-interrupted fleet.
//
// Resume is elastic: worker state is matched by worker index, a rejoining
// worker picks its saved optimizer state back up, a newly joined worker
// starts with fresh state, and state saved for workers no longer configured
// is dropped. Bit-identity with an uninterrupted run is guaranteed when the
// fleet configuration (membership, seed, aggregation) is unchanged.

// SessionView assembles the fleet's durable state with the given next round
// cursor. Parameters and optimizer slots are views of the live model and
// optimizers, valid until the next round runs.
func (f *Fleet) SessionView(nextRound int) (*ckpt.Session, error) {
	s, err := f.core.SessionView(nextRound)
	if err != nil {
		return nil, err
	}
	for _, w := range f.workers {
		ws, err := w.StateView()
		if err != nil {
			return nil, err
		}
		s.Workers = append(s.Workers, ws)
	}
	return s, nil
}

// StateView returns the worker's durable per-round state — progress
// counters and local optimizer state, whose slots are live vectors valid
// until the worker trains again — as the checkpoint worker record. This is
// the unit both fleet checkpoints and the coord protocol's rejoin recovery
// exchange.
func (w *Worker) StateView() (ckpt.WorkerState, error) {
	opt, err := trainer.OptimizerStateView(w.opt, w.Chain.Params())
	if err != nil {
		return ckpt.WorkerState{}, fmt.Errorf("fleet: %s optimizer state: %w", w.Spec.Name, err)
	}
	return ckpt.WorkerState{
		Index:   w.Index,
		Name:    w.Spec.Name,
		Rounds:  w.roundsDone,
		Samples: w.samplesDone,
		Opt:     opt,
	}, nil
}

// RestoreState applies a saved worker record: local optimizer state (the
// optimizer kind must match) and progress counters.
func (w *Worker) RestoreState(ws ckpt.WorkerState) error {
	if err := trainer.RestoreOptimizerState(w.opt, w.Chain.Params(), ws.Opt); err != nil {
		return fmt.Errorf("fleet: restoring %s optimizer state: %w", w.Spec.Name, err)
	}
	w.roundsDone = ws.Rounds
	w.samplesDone = ws.Samples
	return nil
}

// SaveCheckpoint durably writes the fleet state into the directory and
// returns the name of the slot file that holds it.
func (f *Fleet) SaveCheckpoint(d *ckpt.Dir, nextRound int) (string, error) {
	s, err := f.SessionView(nextRound)
	if err != nil {
		return "", err
	}
	return d.Save(s)
}

// ResumeFrom restores the fleet from the directory's newest loadable
// checkpoint and returns the next round to run.
func (f *Fleet) ResumeFrom(d *ckpt.Dir) (int, error) {
	s, name, err := d.Load()
	if err != nil {
		return 0, err
	}
	next, err := f.RestoreSession(s)
	if err != nil {
		return 0, fmt.Errorf("fleet: restoring %s: %w", name, err)
	}
	return next, nil
}

// RestoreSession applies a loaded fleet session and returns its next-round
// cursor.
func (f *Fleet) RestoreSession(s *ckpt.Session) (int, error) {
	// Pre-check every worker's optimizer kind BEFORE the core mutates
	// anything, so a mismatched resume leaves the fleet untouched (the
	// all-or-nothing restore contract).
	savedWorkers := make(map[int]*ckpt.WorkerState, len(s.Workers))
	for i := range s.Workers {
		savedWorkers[s.Workers[i].Index] = &s.Workers[i]
	}
	for _, w := range f.workers {
		if ws, ok := savedWorkers[w.Index]; ok && ws.Opt.Name != w.opt.Name() {
			return 0, fmt.Errorf("fleet: checkpoint has %q optimizer state for %s but the worker uses %q",
				ws.Opt.Name, w.Spec.Name, w.opt.Name())
		}
	}
	if err := f.core.RestoreSession(s); err != nil {
		return 0, err
	}
	for _, w := range f.workers {
		ws, ok := savedWorkers[w.Index]
		if !ok {
			continue // a worker that joined after the checkpoint starts fresh
		}
		if err := w.RestoreState(*ws); err != nil {
			return 0, err
		}
	}
	return s.Round, nil
}

// RunFrom executes rounds startRound..Rounds-1 and assembles the report for
// them. When d is non-nil it checkpoints durably: after every round r with
// (r+1) divisible by everyRounds (an absolute cadence, so an interrupted and
// resumed run checkpoints at the same rounds as an uninterrupted one), and
// once after the final round. Run is RunFrom(0, nil, 0).
func (f *Fleet) RunFrom(startRound int, d *ckpt.Dir, everyRounds int) (*Report, error) {
	if startRound < 0 || startRound > f.cfg.Rounds {
		return nil, fmt.Errorf("fleet: resume round %d outside [0, %d]", startRound, f.cfg.Rounds)
	}
	rep := f.newReport()
	for r := startRound; r < f.cfg.Rounds; r++ {
		rs, err := f.Round(r)
		if err != nil {
			return nil, err
		}
		// The coordinator closes its rounds through the same Finish: the
		// report, the fleet_* round series and the health rules, whose
		// firings land in the report's ALERTS section and fleet_alerts_total.
		f.core.Finish(rep, rs)
		if d != nil && everyRounds > 0 && (r+1)%everyRounds == 0 && r+1 < f.cfg.Rounds {
			if _, err := f.SaveCheckpoint(d, r+1); err != nil {
				return nil, fmt.Errorf("fleet: checkpointing after round %d: %w", r, err)
			}
		}
	}
	if d != nil {
		if _, err := f.SaveCheckpoint(d, f.cfg.Rounds); err != nil {
			return nil, fmt.Errorf("fleet: writing completion checkpoint: %w", err)
		}
	}
	return rep, nil
}
