// Package chain executes real neural networks (built from internal/nn
// layers) under a checkpointing schedule from internal/checkpoint. It is the
// bridge between the paper's scheduling theory and an actual training step:
// the executor re-runs stage forwards exactly where the schedule says to,
// retains only the states the schedule snapshots, and produces gradients that
// are identical to plain backpropagation.
//
// The recompute sweeps run on the parallel kernel engine in internal/tensor:
// every stage forward re-executed by an Advance action goes through the same
// batch-parallel, pool-backed GEMM micro-kernels as the initial sweep — a
// column-vectorised AVX2 tile where the CPU has one, pure-Go register strips
// elsewhere — so a unit of the recompute factor costs one forward at kernel
// speed and no per-recompute scratch allocation. Both kernels add every output
// element's products one at a time in ascending k, each product and each sum
// rounded (never fused), whatever the tiling, the lane or the worker count,
// which is what lets a re-run forward reproduce the first one bit for bit, on
// this machine or on another.
//
// Checkpoints live in a pluggable store (package store): the default RAM
// store keeps stage outputs by reference — safe because the nn.Layer
// contract guarantees Forward returns a fresh tensor, never a reused
// internal buffer — while a disk or tiered store serializes states through
// the bit-exact raw tensor codec, so the flash tier of a two-level schedule
// really spills. Results are bit-identical at any worker count
// (EDGETRAIN_WORKERS) and across stores, so a checkpointed (and even
// spilled) step reproduces plain backpropagation exactly — gradients, and
// the batch-norm running statistics too: the executor restores a stage's
// non-trainable state after every forward of it but the first in a step.
package chain

import (
	"errors"
	"fmt"
	"time"

	"github.com/edgeml/edgetrain/internal/checkpoint"
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

// LossGradFunc maps the chain output to the gradient of the training loss
// with respect to that output. It is called exactly once per Execute, when
// the adjoint of the final stage runs.
type LossGradFunc func(output *tensor.Tensor) *tensor.Tensor

// Result reports what a checkpointed execution did.
type Result struct {
	Output    *tensor.Tensor // the chain output x_L
	InputGrad *tensor.Tensor // gradient with respect to the chain input x_0

	// ForwardEvals counts stage forward executions triggered by Advance
	// actions (recomputation and the initial sweep). The forward run folded
	// into each adjoint step is counted separately in BackwardEvals.
	ForwardEvals  int
	BackwardEvals int

	// PeakStates is the maximum number of simultaneously retained states
	// (checkpoints plus the chain input).
	PeakStates int
	// PeakStateBytes is the measured peak RAM footprint of the execution's
	// states: the chain input, the RAM-resident checkpoints, and the live
	// working state when it is not one of those (the largest transient).
	// States a tiered store spilled to disk do not count here.
	PeakStateBytes int64

	// PeakDiskBytes is the high-water mark of checkpoint bytes this
	// execution held on disk (a per-step quantity even on a reused store);
	// zero for a pure in-RAM execution.
	PeakDiskBytes int64
	// DiskWrites and DiskReads count checkpoint spills and restores
	// performed by the store's disk tier.
	DiskWrites int
	DiskReads  int
}

// ErrNoLossGrad is returned when Execute is called without a loss-gradient
// callback.
var ErrNoLossGrad = errors.New("chain: nil loss-gradient callback")

// Execute runs one training step (forward + backward) of the chain on input x
// following the given checkpointing schedule, keeping every checkpoint as an
// in-RAM tensor reference. Parameter gradients are accumulated into the
// stages' Params; the caller applies the optimiser.
//
// The schedule is consumed as a stream, so lazily generated plans execute
// identically to materialized ones. Its length must equal the chain length.
// train selects the layers' training mode (batch statistics for batch norm).
func Execute(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, sched schedule.Schedule, train bool) (*Result, error) {
	return ExecuteWithStore(c, x, lossGrad, sched, store.NewRAM(), train)
}

// ExecuteWithStore runs one training step like Execute, but routes the
// schedule's Snapshot/Restore/Free actions through the given checkpoint
// store. With a tiered store, the disk-tier snapshots of a two-level plan
// are serialized to flash and the reported PeakStateBytes counts only what
// stayed resident in RAM; PeakDiskBytes and the I/O counters account for the
// spilled tier. The store is left empty on success (a valid schedule frees
// every slot) and is not closed, so one store can serve a whole training run
// while its Stats accumulate.
func ExecuteWithStore(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, sched schedule.Schedule, st store.Store, train bool) (*Result, error) {
	if lossGrad == nil {
		return nil, ErrNoLossGrad
	}
	if st == nil {
		return nil, errors.New("chain: nil checkpoint store")
	}
	if sched.Length() != c.Len() {
		return nil, fmt.Errorf("chain: schedule length %d does not match chain length %d", sched.Length(), c.Len())
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

	// Working state and checkpoint slots. State index i means x_i (the output
	// of stage i); index 0 is the chain input. The tensors themselves live in
	// the store; the executor only tracks which state index occupies a slot.
	current := x
	currentIdx := 0
	slotIdx := make([]int, sched.Slots())
	for i := range slotIdx {
		slotIdx[i] = -1
	}
	occupied := 0
	startRAM := st.BytesResident() // pre-existing residency of a reused store
	startStats := st.Stats()       // accounting baseline, so a reused store reports per-step deltas

	// fail releases every slot this execution occupied before returning the
	// error, so a reused store is not left poisoned ("slot already
	// occupied") and spill files do not leak past the failed step.
	fail := func(err error) (*Result, error) {
		for slot, idx := range slotIdx {
			if idx != -1 {
				st.Free(slot) // best effort; the original error wins
			}
		}
		return nil, err
	}

	// trackPeak measures the RAM actually retained right now: the chain
	// input, the store's RAM-resident checkpoints, and the live working
	// state unless it aliases one of those (the RAM store keeps references,
	// so a just-snapshotted or just-restored state must not count twice).
	trackPeak := func() {
		if states := 1 + occupied; states > res.PeakStates {
			res.PeakStates = states
		}
		bytes := x.Bytes() + st.BytesResident() - startRAM
		if current != x && !st.Holds(current) {
			bytes += current.Bytes()
		}
		if bytes > res.PeakStateBytes {
			res.PeakStateBytes = bytes
		}
	}
	trackPeak()

	pending := l                // next adjoint step
	var upstream *tensor.Tensor // gradient flowing into the pending stage

	// Batch-norm running statistics must advance once per step, as they do
	// under plain backpropagation, however often the schedule re-runs a
	// stage: firstState keeps each stage's non-trainable state as its first
	// forward of the step left it, and every later forward of that stage is
	// followed by a restore.
	firstState := make([][]float64, l)
	runForward := func(stage int, input *tensor.Tensor) *tensor.Tensor {
		out := c.Stages[stage-1].Forward(input, train)
		if s, ok := c.Stages[stage-1].(nn.Stateful); ok && train {
			pinState(&firstState[stage-1], s.StateTensors())
		}
		return out
	}

	ai := 0
	for a := range sched.Actions() {
		switch a.Kind {
		case schedule.ActionAdvance:
			var t0 time.Time
			if om.on {
				t0 = time.Now()
			}
			for s := 0; s < a.Steps; s++ {
				current = runForward(currentIdx+1, current)
				currentIdx++
				res.ForwardEvals++
				trackPeak()
			}
			if om.on {
				fwdDur += time.Since(t0)
			}
		case schedule.ActionSnapshot:
			if a.Slot < 0 || a.Slot >= len(slotIdx) {
				return fail(fmt.Errorf("chain: action %d: slot %d out of range", ai, a.Slot))
			}
			if err := st.Put(a.Slot, a.Tier, current); err != nil {
				return fail(fmt.Errorf("chain: action %d: %w", ai, err))
			}
			slotIdx[a.Slot] = currentIdx
			occupied++
			// Disk residency only grows on Put, so sampling here captures
			// this step's flash peak even on a reused store.
			if d := st.Stats().DiskBytes - startStats.DiskBytes; d > res.PeakDiskBytes {
				res.PeakDiskBytes = d
			}
			trackPeak()
		case schedule.ActionRestore:
			if a.Slot == schedule.InputSlot {
				current, currentIdx = x, 0
			} else {
				if a.Slot < 0 || a.Slot >= len(slotIdx) || slotIdx[a.Slot] == -1 {
					return fail(fmt.Errorf("chain: action %d: restore from empty slot %d", ai, a.Slot))
				}
				t, err := st.Get(a.Slot)
				if err != nil {
					return fail(fmt.Errorf("chain: action %d: %w", ai, err))
				}
				current, currentIdx = t, slotIdx[a.Slot]
				trackPeak()
			}
		case schedule.ActionFree:
			if a.Slot < 0 || a.Slot >= len(slotIdx) || slotIdx[a.Slot] == -1 {
				return fail(fmt.Errorf("chain: action %d: freeing empty slot %d", ai, a.Slot))
			}
			if err := st.Free(a.Slot); err != nil {
				return fail(fmt.Errorf("chain: action %d: %w", ai, err))
			}
			slotIdx[a.Slot] = -1
			occupied--
		case schedule.ActionBackprop:
			if pending == 0 {
				return fail(fmt.Errorf("chain: action %d: no adjoint steps left", ai))
			}
			if currentIdx != pending-1 {
				return fail(fmt.Errorf("chain: action %d: adjoint of stage %d needs state %d, have %d", ai, pending, pending-1, currentIdx))
			}
			// The adjoint of a stage always re-runs its forward so the layer's
			// internal cache corresponds to the correct input, then applies
			// the layer backward.
			var t0 time.Time
			if om.on {
				t0 = time.Now()
			}
			out := runForward(pending, current)
			res.BackwardEvals++
			if pending == l {
				res.Output = out
				upstream = lossGrad(out)
				if upstream == nil {
					return fail(fmt.Errorf("chain: loss-gradient callback returned nil"))
				}
			}
			upstream = c.Stages[pending-1].Backward(upstream)
			pending--
			if om.on {
				bwdDur += time.Since(t0)
			}
		default:
			return fail(fmt.Errorf("chain: action %d: unknown kind %d", ai, a.Kind))
		}
		ai++
	}
	if pending != 0 {
		return fail(fmt.Errorf("chain: schedule left %d adjoint steps unexecuted", pending))
	}
	res.InputGrad = upstream
	stats := st.Stats()
	res.DiskWrites = stats.DiskWrites - startStats.DiskWrites
	res.DiskReads = stats.DiskReads - startStats.DiskReads
	om.record(res, stepStart, fwdDur, bwdDur)
	return res, nil
}

// pinState copies the state tensors into *first on the first call for a
// stage and copies *first back over them on every later one. The tensors are
// per-channel vectors, so the copy is noise beside the forward it follows.
func pinState(first *[]float64, state []nn.NamedState) {
	if *first == nil {
		kept := []float64{}
		for _, st := range state {
			kept = append(kept, st.Tensor.Data()...)
		}
		*first = kept
		return
	}
	off := 0
	for _, st := range state {
		off += copy(st.Tensor.Data(), (*first)[off:])
	}
}

// ExecutePlain runs a conventional forward and backward pass (every stage's
// cache retained by the layer itself). It is the baseline the checkpointed
// executor is validated against and corresponds to the store-all row of the
// paper's analysis.
func ExecutePlain(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, train bool) (*Result, error) {
	if lossGrad == nil {
		return nil, ErrNoLossGrad
	}
	res := &Result{}
	om := obsHandles()
	var stepStart, t0 time.Time
	var fwdDur, bwdDur time.Duration
	if om.on {
		stepStart = time.Now()
		t0 = stepStart
	}
	states := []*tensor.Tensor{x}
	current := x
	for _, s := range c.Stages {
		current = s.Forward(current, train)
		states = append(states, current)
		res.ForwardEvals++
	}
	if om.on {
		fwdDur = time.Since(t0)
	}
	res.Output = current
	var bytes int64
	for _, s := range states {
		bytes += s.Bytes()
	}
	res.PeakStates = len(states)
	res.PeakStateBytes = bytes

	grad := lossGrad(current)
	if grad == nil {
		return nil, fmt.Errorf("chain: loss-gradient callback returned nil")
	}
	if om.on {
		t0 = time.Now()
	}
	for i := len(c.Stages) - 1; i >= 0; i-- {
		grad = c.Stages[i].Backward(grad)
		res.BackwardEvals++
	}
	if om.on {
		bwdDur = time.Since(t0)
	}
	res.InputGrad = grad
	om.record(res, stepStart, fwdDur, bwdDur)
	return res, nil
}

// Policy selects how Step plans its checkpointing schedule. Kind names a
// strategy in the public plan registry; the remaining fields are forwarded as
// the matching plan options.
type Policy struct {
	// Kind is a registered strategy name ("storeall", "revolve", "sequential",
	// "periodic", "logspaced", "twolevel"). The legacy spelling "store-all"
	// and the empty string select "storeall".
	Kind string
	// Slots is the checkpoint budget for "revolve" (and the RAM tier of
	// "twolevel").
	Slots int
	// Segments is the segment count for "sequential".
	Segments int
	// Interval is the checkpoint period for "periodic".
	Interval int
	// DiskSlots is the flash-tier checkpoint count for "twolevel".
	DiskSlots int
	// Rho, when positive, is a recompute budget from which strategies derive
	// their memory tunable (e.g. "revolve" with Slots == 0).
	Rho float64
	// Cost is the cost model used for the Rho-based selection.
	Cost checkpoint.CostModel
	// MemoryBudget, when positive, is the RAM byte budget handed to
	// budget-aware strategies ("auto" selects and parametrizes the cheapest
	// strategy whose peak resident footprint fits it).
	MemoryBudget int64
	// WeightBytes and ActivationBytes describe the chain's memory shape for
	// budget-aware planning: the resident weight state (values plus
	// gradients) and the size of one stored inter-stage state. Step defaults
	// them from the network parameters and the input tensor when zero.
	WeightBytes     int64
	ActivationBytes int64
	// Store, when non-nil, executes the schedule's Snapshot/Restore/Free
	// actions through the given checkpoint store (e.g. store.NewTiered to
	// spill into a chosen directory with stats accumulating across steps).
	// When nil, Step keeps checkpoints as in-RAM tensor references — except
	// for plans that annotate slots with the disk tier, which spill through
	// a temporary tiered store so a budget-selected two-level plan never
	// silently lands its flash tier in RAM.
	Store store.Store
}

// strategyName normalises the policy kind to a registry name. Only the
// legacy spelling "store-all" (and the empty default) is rewritten; every
// other kind is passed through verbatim so user-registered strategies with
// any name keep working.
func (p Policy) strategyName() string {
	switch p.Kind {
	case "", "store-all":
		return "storeall"
	default:
		return p.Kind
	}
}

// Plan materialises the policy into a schedule for a chain of length l by
// looking the strategy up in the public plan registry.
func (p Policy) Plan(l int) (schedule.Schedule, error) {
	var opts []plan.Option
	if p.Slots > 0 {
		opts = append(opts, plan.WithSlots(p.Slots))
	}
	if p.Segments > 0 {
		opts = append(opts, plan.WithSegments(p.Segments))
	}
	if p.Interval > 0 {
		opts = append(opts, plan.WithInterval(p.Interval))
	}
	if p.DiskSlots > 0 {
		opts = append(opts, plan.WithDiskSlots(p.DiskSlots))
	}
	if p.Rho > 0 {
		opts = append(opts, plan.WithRho(p.Rho))
	}
	if p.Cost.BackwardRatio > 0 {
		opts = append(opts, plan.WithBackwardRatio(p.Cost.BackwardRatio))
	}
	if p.MemoryBudget > 0 {
		opts = append(opts, plan.WithMemoryBudget(p.MemoryBudget))
	}
	spec := plan.ChainSpec{
		Length:          l,
		WeightBytes:     p.WeightBytes,
		ActivationBytes: p.ActivationBytes,
	}
	return plan.Build(p.strategyName(), spec, opts...)
}

// Step plans a schedule for the chain according to the policy and executes
// it. A store-all policy without a store uses ExecutePlain; a policy with a
// Store routes the checkpoints through it. For budget-aware strategies, the
// chain's memory shape defaults to the live configuration: one stored state
// is assumed to be the size of the input x (the homogeneous-chain
// approximation), and the weight state to value+gradient of every parameter.
func Step(c *Chain, x *tensor.Tensor, lossGrad LossGradFunc, p Policy, train bool) (*Result, error) {
	if p.strategyName() == "storeall" && p.Store == nil {
		return ExecutePlain(c, x, lossGrad, train)
	}
	if p.ActivationBytes == 0 {
		p.ActivationBytes = x.Bytes()
	}
	if p.WeightBytes == 0 {
		p.WeightBytes = 2 * nn.ParamBytes(c.Stages)
	}
	sched, err := p.Plan(c.Len())
	if err != nil {
		return nil, err
	}
	if p.Store != nil {
		return ExecuteWithStore(c, x, lossGrad, sched, p.Store, train)
	}
	// A plan that assigns slots to the flash tier was chosen to keep those
	// states out of RAM (the budget the auto strategy enforces assumes it),
	// so executing it with the all-in-RAM reference store would silently
	// violate the budget. Spill through a temporary tiered store instead;
	// callers who want control over the spill directory or want the store's
	// stats to accumulate across steps set Policy.Store.
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
