package trainer

import (
	"fmt"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/nn"
)

// Optimizer state for checkpoint/resume. The in-memory optimisers key their
// state by *nn.Param identity, which does not survive a process restart, so
// the durable form (ckpt.OptimizerState) is keyed by parameter name instead.
// Views and restores iterate the parameter list in order, making the
// serialized slot order deterministic.

// StatefulOptimizer is an Optimizer whose internal state must survive
// checkpoint and resume (momentum velocities, Adam moments and step count).
// SGD carries no state and does not implement it.
type StatefulOptimizer interface {
	Optimizer
	// StateView returns the optimizer state for the given parameters; slot
	// data are the live vectors, valid until the next Step (Clone to keep
	// them). Untouched parameters have no slots (their state is zero).
	StateView(params []*nn.Param) (ckpt.OptimizerState, error)
	// RestoreState replaces the optimizer's state for the given parameters
	// with copies of a saved state's vectors.
	RestoreState(params []*nn.Param, st ckpt.OptimizerState) error
}

// OptimizerStateView returns any optimizer's durable state: a stateful
// optimizer's StateView (live vectors, valid until its next Step), a
// stateless one's name.
func OptimizerStateView(opt Optimizer, params []*nn.Param) (ckpt.OptimizerState, error) {
	if so, ok := opt.(StatefulOptimizer); ok {
		return so.StateView(params)
	}
	return ckpt.OptimizerState{Name: opt.Name()}, nil
}

// RestoreOptimizerState restores a saved state into an optimizer,
// verifying the optimizer kind matches — resuming Adam state into SGD would
// silently train a different trajectory.
func RestoreOptimizerState(opt Optimizer, params []*nn.Param, st ckpt.OptimizerState) error {
	if st.Name != opt.Name() {
		return fmt.Errorf("trainer: checkpoint has %q optimizer state but the run uses %q", st.Name, opt.Name())
	}
	if so, ok := opt.(StatefulOptimizer); ok {
		return so.RestoreState(params, st)
	}
	if len(st.Slots) > 0 || st.Step != 0 {
		return fmt.Errorf("trainer: checkpoint carries state for the stateless %q optimizer", opt.Name())
	}
	return nil
}

// slotViews names one state vector per tracked parameter, in parameter
// order, without copying it. Parameter names must be unique (the same
// invariant ckpt.Session.ApplyParams enforces).
func slotViews(params []*nn.Param, slot string, vecs map[*nn.Param][]float64) ([]ckpt.OptSlot, error) {
	var out []ckpt.OptSlot
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name] {
			return nil, fmt.Errorf("trainer: duplicate parameter name %q in optimizer state", p.Name)
		}
		seen[p.Name] = true
		v, ok := vecs[p]
		if !ok {
			continue
		}
		out = append(out, ckpt.OptSlot{Param: p.Name, Slot: slot, Data: v})
	}
	return out, nil
}

// restoreSlots rebuilds the per-parameter vector map from serialized slots
// of the given slot name.
func restoreSlots(params []*nn.Param, slot string, slots []ckpt.OptSlot) (map[*nn.Param][]float64, error) {
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	vecs := make(map[*nn.Param][]float64)
	for _, s := range slots {
		if s.Slot != slot {
			continue
		}
		p, ok := byName[s.Param]
		if !ok {
			return nil, fmt.Errorf("trainer: checkpoint has %s state for unknown parameter %q", slot, s.Param)
		}
		if len(s.Data) != p.Count() {
			return nil, fmt.Errorf("trainer: %s state for %q has %d elements, parameter has %d",
				slot, s.Param, len(s.Data), p.Count())
		}
		vecs[p] = append([]float64(nil), s.Data...)
	}
	return vecs, nil
}

// StateView implements StatefulOptimizer.
func (m *Momentum) StateView(params []*nn.Param) (ckpt.OptimizerState, error) {
	slots, err := slotViews(params, "velocity", m.velocity)
	if err != nil {
		return ckpt.OptimizerState{}, err
	}
	return ckpt.OptimizerState{Name: m.Name(), Slots: slots}, nil
}

// RestoreState implements StatefulOptimizer.
func (m *Momentum) RestoreState(params []*nn.Param, st ckpt.OptimizerState) error {
	vecs, err := restoreSlots(params, "velocity", st.Slots)
	if err != nil {
		return err
	}
	m.velocity = vecs
	return nil
}

// StateView implements StatefulOptimizer.
func (a *Adam) StateView(params []*nn.Param) (ckpt.OptimizerState, error) {
	mSlots, err := slotViews(params, "m", a.m)
	if err != nil {
		return ckpt.OptimizerState{}, err
	}
	vSlots, err := slotViews(params, "v", a.v)
	if err != nil {
		return ckpt.OptimizerState{}, err
	}
	return ckpt.OptimizerState{Name: a.Name(), Step: int64(a.step), Slots: append(mSlots, vSlots...)}, nil
}

// RestoreState implements StatefulOptimizer.
func (a *Adam) RestoreState(params []*nn.Param, st ckpt.OptimizerState) error {
	mVecs, err := restoreSlots(params, "m", st.Slots)
	if err != nil {
		return err
	}
	vVecs, err := restoreSlots(params, "v", st.Slots)
	if err != nil {
		return err
	}
	a.m, a.v = mVecs, vVecs
	a.step = int(st.Step)
	return nil
}
