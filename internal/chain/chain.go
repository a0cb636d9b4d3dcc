// Package chain executes real neural networks (built from internal/nn
// layers) under a checkpointing schedule.Schedule, planned by name through
// package plan (plan.Build, one schedule per Step). It is the bridge between
// the paper's scheduling theory and an actual training step: one executor
// runs every policy, store-all too (one taped advance, then the backward
// sweep), re-runs stage forwards exactly where the schedule says to, retains
// only the states the schedule snapshots or tapes, and produces gradients
// identical to plain backpropagation. It holds no legality or memory rules
// of its own: every action is checked against a schedule.Validator before it
// is executed and applied to it after, and that Validator counts the states
// the step held (schedule.Trace.PeakStates).
//
// The recompute sweeps run on the parallel kernel engine in internal/tensor:
// every stage forward re-executed by an Advance action goes through the same
// batch-parallel, pool-backed GEMM micro-kernels as the initial sweep — a
// column-vectorised AVX2 tile where the CPU has one, pure-Go register strips
// elsewhere — so a unit of the recompute factor costs one forward at kernel
// speed and no per-recompute scratch allocation, and on the same resident
// worker team (internal/parallel): the three hundred parallel regions of a
// Revolve step find their helper already spinning instead of waking a thread
// each, which is what makes the second core pay for the extra forwards. Both
// kernels add every output
// element's products one at a time in ascending k, each product and each sum
// rounded (never fused), whatever the tiling, the lane or the worker count,
// which is what lets a re-run forward reproduce the first one bit for bit, on
// this machine or on another.
//
// Checkpoints live in a pluggable store (package store): the default RAM
// store keeps stage outputs by reference — safe because the nn.Layer
// contract guarantees Forward returns a fresh tensor, never a reused
// internal buffer — while a tiered store serializes the snapshots the
// schedule puts on its flash tier through the bit-exact raw tensor codec, so
// a two-level schedule really spills. Results are bit-identical at any
// worker count (EDGETRAIN_WORKERS) and across stores, so a checkpointed (and
// even spilled) step reproduces plain backpropagation exactly.
package chain

import (
	"errors"
	"fmt"
	"time"

	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// Chain is a sequential network viewed as a list of checkpointable stages.
// Each stage is an nn.Layer; a stage's input is the previous stage's output.
type Chain struct {
	Stages []nn.Layer
}

// FromSequential views a Sequential container as a chain whose stages are the
// container's layers.
func FromSequential(s *nn.Sequential) *Chain {
	return &Chain{Stages: append([]nn.Layer(nil), s.Layers...)}
}

// New builds a chain directly from layers.
func New(stages ...nn.Layer) *Chain { return &Chain{Stages: stages} }

// Len returns the number of stages (the chain length L).
func (c *Chain) Len() int { return len(c.Stages) }

// Params returns all trainable parameters of the chain.
func (c *Chain) Params() []*nn.Param {
	var ps []*nn.Param
	for _, s := range c.Stages {
		ps = append(ps, s.Params()...)
	}
	return ps
}

// ZeroGrads clears all parameter gradients.
func (c *Chain) ZeroGrads() { nn.ZeroGrads(c.Stages) }

// Infer runs the chain forward in inference mode and returns its output. No
// backward follows, so each stage's tape is released right after its forward:
// the sweep holds at most one stage's tape and leaves none behind.
func (c *Chain) Infer(x *tensor.Tensor) *tensor.Tensor {
	for _, s := range c.Stages {
		x = s.Forward(x, false)
		nn.Release(s)
	}
	return x
}

// LossGradFunc maps the chain output to the gradient of the training loss
// with respect to that output. It is called exactly once per Execute, when
// the adjoint of the final stage runs.
type LossGradFunc func(output *tensor.Tensor) *tensor.Tensor

// Result reports what a checkpointed execution did.
type Result struct {
	Output    *tensor.Tensor // the chain output x_L
	InputGrad *tensor.Tensor // gradient with respect to the chain input x_0
	Usage                    // what the execution cost
}

// Usage is what training costs on the paper's two axes — recompute (forward
// evaluations) and peak memory (retained states and their bytes) — plus the
// flash traffic of a spilling store. One execution reports one Usage in its
// Result; an epoch, a round or a whole fleet run folds those with Add.
type Usage struct {
	// ForwardEvals counts stage forwards run by Advance actions, taped or
	// not. The forward an adjoint step re-runs when its stage has no live
	// tape is counted in BackwardEvals, with the step.
	ForwardEvals  int
	BackwardEvals int

	// PeakStates and PeakStateBytes are the peak of the states the
	// execution held in RAM, counted by schedule.Trace.PeakStates' rule
	// from the sizes of the tensors it held and the snapshots its store
	// kept resident. States a store spilled to disk do not count, and
	// neither do weights, gradients or optimiser state.
	PeakStates     int
	PeakStateBytes int64

	// PeakDiskBytes is the high-water mark of checkpoint bytes an execution
	// held on disk (a per-step quantity even on a reused store); zero for a
	// pure in-RAM execution.
	PeakDiskBytes int64
	// DiskWrites and DiskReads count checkpoint spills and restores
	// performed by the store's disk tier.
	DiskWrites int
	DiskReads  int
}

// Add folds o into u: the counts sum, the peaks take the larger value, so the
// zero Usage is the identity.
func (u *Usage) Add(o Usage) {
	u.ForwardEvals += o.ForwardEvals
	u.BackwardEvals += o.BackwardEvals
	u.PeakStates = max(u.PeakStates, o.PeakStates)
	u.PeakStateBytes = max(u.PeakStateBytes, o.PeakStateBytes)
	u.PeakDiskBytes = max(u.PeakDiskBytes, o.PeakDiskBytes)
	u.DiskWrites += o.DiskWrites
	u.DiskReads += o.DiskReads
}

// ErrNoLossGrad is returned when Execute is called without a loss-gradient
// callback.
var ErrNoLossGrad = errors.New("chain: nil loss-gradient callback")

// Execute runs one training step (forward + backward) of the chain on input x
// following the given checkpointing schedule, keeping every checkpoint as an
// in-RAM tensor reference. Parameter gradients are accumulated into the
// stages' Params; the caller applies the optimiser.
//
// The schedule's length must equal the chain length. train selects the
// layers' training mode (batch statistics for batch norm).
func Execute(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, sched schedule.Schedule, train bool) (*Result, error) {
	return ExecuteWithStore(c, x, lossGrad, sched, store.NewRAM(), train)
}

// ExecuteWithStore runs one training step like Execute, but routes the
// schedule's Snapshot/Restore/Free actions through the given checkpoint
// store. With a tiered store, the disk-tier snapshots of a two-level plan
// are serialized to flash and the reported peak counts only what stayed
// resident in RAM; PeakDiskBytes and the I/O counters account for the
// spilled tier. The store is left empty on success (a valid schedule frees
// every slot) and is not closed, so one store can serve a whole training run
// while its Stats accumulate.
//
// Every action is checked against a schedule.Validator before it is
// executed and applied to it after, so the executor runs exactly the list
// schedule.Run accepts and its peak is the Validator's count: an illegal
// action is refused before it touches a layer or the store, and the slots
// occupied so far are released.
func ExecuteWithStore(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, sched schedule.Schedule, st store.Store, train bool) (*Result, error) {
	if lossGrad == nil {
		return nil, ErrNoLossGrad
	}
	if st == nil {
		return nil, errors.New("chain: nil checkpoint store")
	}
	if sched.Length != c.Len() {
		return nil, fmt.Errorf("chain: schedule length %d does not match chain length %d", sched.Length, c.Len())
	}
	l := c.Len()
	res := &Result{}

	// Observability: timestamps are taken only when a registry is
	// installed, so disabled runs skip every clock read. Timing never
	// feeds back into execution — weights stay byte-identical either way.
	om := obsHandles()
	var stepStart time.Time
	var fwdDur, bwdDur time.Duration
	if om.on {
		stepStart = time.Now()
	}

	// The validator tracks the working state's index, each slot's state,
	// the live tapes and the pending adjoint, and counts their bytes from
	// size, filled as each state appears; the tensors live in the store and
	// in tapes (tapes[i]: step i's output, whose backward its layer has
	// cached), and the executor only remembers which slots it put there.
	size := make([]int64, l+1)
	size[0] = x.Bytes()
	v := schedule.NewValidator(l, sched.Slots, size)
	current := x
	held := map[int]bool{}
	tapes := make([]*tensor.Tensor, l+1)
	startStats := st.Stats() // accounting baseline, so a reused store reports per-step deltas

	// fail releases every slot this execution occupied before returning the
	// error, so a reused store is not left poisoned ("slot already
	// occupied") and spill files do not leak past the failed step.
	fail := func(err error) (*Result, error) {
		for slot := range held {
			st.Free(slot) // best effort; the original error wins
		}
		return nil, err
	}

	var upstream *tensor.Tensor // gradient flowing into the pending stage

	for i, a := range sched.Actions {
		if err := v.Check(a); err != nil {
			return fail(fmt.Errorf("chain: %w", err))
		}
		switch a.Kind {
		case schedule.ActionAdvance:
			var t0 time.Time
			if om.on {
				t0 = time.Now()
			}
			// An untaped forward's tape is dropped at once: no backward reads it.
			for stage := v.State() + 1; stage <= v.State()+a.Steps; stage++ {
				current = c.Stages[stage-1].Forward(current, train)
				size[stage] = current.Bytes()
				res.ForwardEvals++
				tapes[stage] = nil
				if a.Taped {
					tapes[stage] = current
				} else {
					nn.Release(c.Stages[stage-1])
				}
			}
			if om.on {
				fwdDur += time.Since(t0)
			}
		case schedule.ActionSnapshot:
			resident := st.BytesResident()
			if err := st.Put(a.Slot, a.Tier, current); err != nil {
				return fail(fmt.Errorf("chain: action %d (%s): %w", i, a, err))
			}
			held[a.Slot] = true
			// The snapshot counts as in RAM exactly when the store kept it
			// there: the RAM store keeps every tier, the disk store none.
			a.Tier = schedule.TierDisk
			if st.BytesResident() > resident {
				a.Tier = schedule.TierRAM
			}
			// Disk residency only grows on Put, so sampling here captures
			// this step's flash peak even on a reused store.
			if d := st.Stats().DiskBytes - startStats.DiskBytes; d > res.PeakDiskBytes {
				res.PeakDiskBytes = d
			}
		case schedule.ActionRestore:
			if a.Slot == schedule.InputSlot {
				current = x
			} else {
				t, err := st.Get(a.Slot)
				if err != nil {
					return fail(fmt.Errorf("chain: action %d (%s): %w", i, a, err))
				}
				current = t
			}
		case schedule.ActionFree:
			if err := st.Free(a.Slot); err != nil {
				return fail(fmt.Errorf("chain: action %d (%s): %w", i, a, err))
			}
			delete(held, a.Slot)
		case schedule.ActionBackprop:
			// The adjoint of a stage consumes its live tape or re-runs its
			// forward so the layer's tape corresponds to the correct input,
			// then applies the layer backward, which drops that tape (and
			// advances batch norm's running statistics once per step).
			var t0 time.Time
			if om.on {
				t0 = time.Now()
			}
			stage := v.Pending()
			out := tapes[stage]
			tapes[stage] = nil
			if out == nil {
				out = c.Stages[stage-1].Forward(current, train)
			}
			res.BackwardEvals++
			if stage == l {
				res.Output = out
				upstream = lossGrad(out)
				if upstream == nil {
					return fail(fmt.Errorf("chain: loss-gradient callback returned nil"))
				}
			}
			upstream = c.Stages[stage-1].Backward(upstream)
			if om.on {
				bwdDur += time.Since(t0)
			}
		}
		if err := v.Apply(a); err != nil {
			return fail(fmt.Errorf("chain: %w", err))
		}
	}
	tr, err := v.Finish()
	if err != nil {
		return fail(fmt.Errorf("chain: %w", err))
	}
	res.PeakStates, res.PeakStateBytes = tr.PeakStates, tr.PeakStateBytes
	res.InputGrad = upstream
	stats := st.Stats()
	res.DiskWrites = stats.DiskWrites - startStats.DiskWrites
	res.DiskReads = stats.DiskReads - startStats.DiskReads
	om.record(res.Usage, stepStart, fwdDur, bwdDur)
	return res, nil
}

// ExecutePlain runs a conventional forward and backward pass: Step with the
// default store-all policy, one taped sweep and the backward sweep through
// the one executor. It stays as a name for the benchmark's store-all
// workload, which calls it.
func ExecutePlain(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, train bool) (*Result, error) {
	return Step(c, x, lossGrad, Policy{}, train)
}

// Policy selects how Step plans its checkpointing schedule. Kind names a
// strategy of the public plan package; the remaining fields are its tunables.
type Policy struct {
	// Kind is a strategy name ("storeall", "revolve", "sequential",
	// "twolevel", "auto"). The empty string selects "storeall".
	Kind string
	// Slots is the checkpoint budget for "revolve" (and the RAM tier of
	// "twolevel").
	Slots int
	// Segments is the segment count for "sequential".
	Segments int
	// DiskSlots is the flash-tier checkpoint count for "twolevel".
	DiskSlots int
	// Rho, when positive, is a recompute budget from which strategies derive
	// their memory tunable (e.g. "revolve" with Slots == 0) under the
	// default cost model.
	Rho float64
	// MemoryBudget, when positive, is the RAM byte budget handed to
	// budget-aware strategies ("auto" selects and parametrizes the cheapest
	// strategy whose peak resident footprint fits it).
	MemoryBudget int64
	// WeightBytes and ActivationBytes describe the chain's memory shape for
	// budget-aware planning: the resident weight state (values plus
	// gradients) and the size of one stored inter-stage state. Spec defaults
	// them from the live chain and input when zero.
	WeightBytes     int64
	ActivationBytes int64
	// Store, when non-nil, executes the schedule's Snapshot/Restore/Free
	// actions through the given checkpoint store (e.g. store.NewTiered to
	// spill into a chosen directory with stats accumulating across steps).
	// It is a deployment setting; without one, Step picks the store itself
	// (see Step).
	Store store.Store
}

// strategyName normalises the policy kind to a plan strategy name: the
// empty default means "storeall".
func (p Policy) strategyName() string {
	if p.Kind == "" {
		return "storeall"
	}
	return p.Kind
}

// Spec is the chain's memory shape for budget-aware planning: the policy's
// WeightBytes and ActivationBytes where set, otherwise the value and gradient
// of every parameter of c as the weight state and the bytes of the input x as
// one stored state (the homogeneous-chain approximation).
func (p Policy) Spec(c *Chain, x *tensor.Tensor) plan.ChainSpec {
	spec := plan.ChainSpec{Length: c.Len(), WeightBytes: p.WeightBytes, ActivationBytes: p.ActivationBytes}
	if spec.WeightBytes == 0 {
		spec.WeightBytes = 2 * nn.ParamBytes(c.Stages)
	}
	if spec.ActivationBytes == 0 {
		spec.ActivationBytes = x.Bytes()
	}
	return spec
}

// options is the strategy's tunables as the plan package takes them.
func (p Policy) options() plan.Options {
	return plan.Options{
		Slots:        p.Slots,
		Segments:     p.Segments,
		DiskSlots:    p.DiskSlots,
		Rho:          p.Rho,
		MemoryBudget: p.MemoryBudget,
	}
}

// Plan builds the policy's schedule for a chain of length l from the
// policy's own byte shape; Step plans from Spec, which fills it in from the
// live chain.
func (p Policy) Plan(l int) (schedule.Schedule, error) {
	spec := plan.ChainSpec{Length: l, WeightBytes: p.WeightBytes, ActivationBytes: p.ActivationBytes}
	return plan.Build(p.strategyName(), spec, p.options())
}

// Step builds the policy's schedule with plan.Build, once, from the chain's
// memory shape (Spec), and executes it; "auto" runs the schedule its
// selection returns, labelled "auto:...". The schedule's tiers say which
// snapshots belong on flash, and one rule picks the store that carries them
// out: the policy's Store when it has one; otherwise a temporary tiered
// store, removed on return, for a schedule with a flash tier — that tier was
// chosen to keep its states out of RAM, so the all-in-RAM store would
// silently break the budget — and in-RAM tensor references for everything
// else. Store-all writes to no store: it is plain backpropagation whatever
// its store.
func Step(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, p Policy, train bool) (*Result, error) {
	sched, err := plan.Build(p.strategyName(), p.Spec(c, x), p.options())
	if err != nil {
		return nil, err
	}
	if p.Store != nil {
		return ExecuteWithStore(c, x, lossGrad, sched, p.Store, train)
	}
	if schedule.UsesTier(sched, schedule.TierDisk) {
		ts, err := store.NewTiered("")
		if err != nil {
			return nil, err
		}
		defer ts.Close()
		return ExecuteWithStore(c, x, lossGrad, sched, ts, train)
	}
	return Execute(c, x, lossGrad, sched, train)
}
