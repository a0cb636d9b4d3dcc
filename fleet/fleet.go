// Package fleet runs real data-parallel training rounds across N concurrent
// simulated edge workers — the executable counterpart of the analytical fleet
// model in internal/edgesim, and the paper's headline claim made runnable:
// neural networks trained in situ, distributed across a fleet of low-powered
// heterogeneous nodes.
//
// Every worker owns a device profile (internal/device), a RAM byte budget
// that drives plan.AutoSelect independently per worker — so a Jetson-class
// and a Raspberry-class node pick different checkpoint strategies for the
// same network — its own tiered spill store (package store) when that
// strategy has a flash tier, and a contiguous, non-IID shard of the dataset
// (trainer.Shard). Workers compute concurrently, one goroutine each; an
// Aggregator merges their round results into the global model with a
// deterministic fold, so the trained weights are bit-identical at any worker
// scheduling, any parallel.SetWorkers / EDGETRAIN_WORKERS setting, and across
// repeated runs with the same seed.
//
// Two aggregation modes ship with the package: FedAvg (sample-weighted
// parameter averaging after local training) and GradAllReduce (synchronous
// gradient averaging, bit-identical to single-node gradient accumulation
// over the concatenated shards — see the Aggregator contract in
// aggregator.go). Fleet-scale failure modes are first-class scenario knobs:
// per-round straggler delays, worker dropout, and partial participation.
//
// The engine measures what the analytical model only predicts: per-worker
// chosen strategy, peak RAM and flash bytes, disk I/O, and per-round
// uplink/downlink traffic; FederatedModel feeds the measured traffic back
// into edgesim.SimulateFederated so the two validate each other.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/edgesim"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/store"
)

// WorkerSpec describes one edge worker of the fleet.
type WorkerSpec struct {
	// Name identifies the worker in reports; defaults to "w<i>-<device>".
	Name string
	// Device is the hardware profile of the node (informational, and the
	// default source of the RAM budget).
	Device device.Device
	// BudgetBytes is the RAM byte budget handed to the worker's budget-aware
	// checkpoint planning. Zero uses Device.MemoryBytes; if that is also
	// zero, the planner's default (the 2 GB Waggle capacity) applies.
	BudgetBytes int64
	// SpillDir is the directory for the worker's flash-tier checkpoint
	// spills; empty uses a per-worker temporary directory.
	SpillDir string
}

// Config controls a fleet training run.
type Config struct {
	// Workers lists the fleet members; at least one is required.
	Workers []WorkerSpec
	// Rounds is the number of aggregation rounds Run executes (default 1).
	Rounds int
	// LocalEpochs is how many passes over its shard a FedAvg worker trains
	// per round (default 1). Gradient all-reduce ignores it.
	LocalEpochs int
	// BatchSize is the workers' local batch size. Zero means one full-shard
	// batch, which is also what the all-reduce equivalence guarantee is
	// stated against.
	BatchSize int
	// Optimizer constructs the optimisers of the run: one per worker for
	// FedAvg local training. Defaults to SGD with learning rate 0.05. The
	// global optimiser of GradAllReduce is configured on the aggregator.
	Optimizer func() trainer.Optimizer
	// Aggregator merges worker results into the global model; defaults to
	// NewFedAvg().
	Aggregator Aggregator
	// Seed drives every stochastic fleet decision (participant selection,
	// dropout draws); runs with equal seeds are bit-identical.
	Seed uint64
	// Participation is the fraction of workers selected per round, in
	// (0, 1]; zero means full participation. The selected count follows
	// edgesim.ParticipantsPerRound, so the analytical model's accounting
	// matches exactly.
	Participation float64
	// DropoutRate is the probability that a selected worker fails before
	// uploading its result (it still receives the broadcast). In [0, 1).
	DropoutRate float64
	// StragglerDelay, when non-nil, returns an artificial delay injected
	// before the given worker's computation in the given round — the
	// straggler scenario knob, and the lever the determinism tests use to
	// shuffle worker completion order.
	StragglerDelay func(round, worker int) time.Duration
	// Compression selects the update codec applied to every worker upload
	// (package compress): a spec string like "topk:0.05+int8+deflate".
	// Empty or "none" disables. Each worker encodes its update (with
	// per-worker error-feedback residuals), the fleet decodes it, and the
	// decoded tensors are what validation sees and the aggregator folds —
	// exactly the bytes-on-the-wire semantics of a coord run. The lossless
	// spec "topk:1+fp64+raw" is bit-identical to no compression.
	Compression string
	// UplinkMbps is the modeled uplink rate used for RoundStats.
	// ModeledUplink (the time the round's largest upload would take).
	// Zero defaults to 10 Mbps, the Waggle node's uplink.
	UplinkMbps float64
}

// Worker is one fleet member: a full model replica, a dataset shard, and the
// checkpoint policy its budget selected.
type Worker struct {
	// Index is the worker's position in Config.Workers, which is also its
	// fold position during aggregation.
	Index int
	// Spec is the worker's specification after defaulting.
	Spec WorkerSpec
	// Chain is the worker's model replica.
	Chain *chain.Chain
	// Shard is the worker's contiguous dataset shard (possibly empty).
	Shard trainer.Dataset
	// Choice reports the checkpoint strategy the worker's budget selected;
	// the zero value (Strategy "") on workers with an empty shard.
	Choice plan.AutoChoice

	policy      chain.Policy
	spill       *store.Tiered
	opt         trainer.Optimizer
	batch       int // effective local batch size (shard length when Config.BatchSize is 0)
	localEpochs int
	fullBatch   trainer.Batch // cached full-shard batch (the shard is immutable)

	// Durable progress counters (checkpointed and restored by ckpt sessions).
	roundsDone  int64 // rounds this worker's update was folded in
	samplesDone int64 // samples behind those updates
}

// Policy returns the worker's checkpointing policy (the strategy its budget
// selected, routed through its tiered spill store when it has a flash tier),
// for custom Aggregator implementations.
func (w *Worker) Policy() chain.Policy { return w.policy }

// LocalEpochs returns the worker's per-round local epoch count.
func (w *Worker) LocalEpochs() int { return w.localEpochs }

// BatchSize returns the worker's effective local batch size.
func (w *Worker) BatchSize() int { return w.batch }

// Optimizer returns the worker's local optimiser (used by FedAvg).
func (w *Worker) Optimizer() trainer.Optimizer { return w.opt }

// RoundBatch returns the worker's minibatch for the given round: the batches
// of its shard visited round-robin, or one full-shard batch when the fleet
// runs full-shard rounds. The zero Batch on an empty shard. The shard is
// immutable, so the full-shard batch is assembled once and reused across
// rounds (callers must not mutate it).
func (w *Worker) RoundBatch(round int) trainer.Batch {
	n := w.Shard.Len()
	if n == 0 {
		return trainer.Batch{}
	}
	size := w.batch
	if size <= 0 || size > n {
		if w.fullBatch.Images == nil {
			w.fullBatch = w.Shard.Batch(0, n)
		}
		return w.fullBatch
	}
	nb := w.Shard.NumBatches(size)
	return w.Shard.Batch(round%nb, size)
}

// Fleet coordinates training rounds across the workers. The global model,
// the fold and the round's books live in its Core; the fleet itself owns the
// workers and how a round reaches them.
type Fleet struct {
	cfg     Config
	core    *Core
	workers []*Worker
	active  []int // indices of workers with non-empty shards

	// Update compression (nil comps when disabled).
	comps   []*compress.Compressor // one per worker: error-feedback state
	rawSent int64                  // cumulative raw upload bytes across rounds
	encSent int64                  // cumulative encoded upload bytes across rounds
}

// New builds a fleet. The model factory must be deterministic (seeded): it is
// called once for the global model and once per worker, and every replica
// must be bit-identical to the global model — New verifies this. The dataset
// is split into len(cfg.Workers) contiguous shards (trainer.Shard), one per
// worker in order, so shard i of a viewpoint-ordered dataset carries node
// i's non-IID skew.
func New(cfg Config, model func() (*chain.Chain, error), ds trainer.Dataset) (*Fleet, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.LocalEpochs <= 0 {
		cfg.LocalEpochs = 1
	}
	if cfg.Participation < 0 || cfg.Participation > 1 {
		return nil, fmt.Errorf("fleet: participation %v outside [0, 1]", cfg.Participation)
	}
	if cfg.DropoutRate < 0 || cfg.DropoutRate >= 1 {
		return nil, fmt.Errorf("fleet: dropout rate %v outside [0, 1)", cfg.DropoutRate)
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = func() trainer.Optimizer { return trainer.NewSGD(0.05) }
	}
	core, err := NewCore("fleet", cfg, model)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, core: core}
	if core.spec.Enabled() {
		f.comps = make([]*compress.Compressor, len(cfg.Workers))
		for i := range f.comps {
			c, err := compress.NewCompressor(core.spec)
			if err != nil {
				return nil, fmt.Errorf("fleet: %w", err)
			}
			f.comps[i] = c
		}
	}

	n := len(cfg.Workers)
	for i, ws := range cfg.Workers {
		w, err := NewWorker(ws, i, n, model, ds, cfg.BatchSize, cfg.LocalEpochs, cfg.Optimizer())
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := sameParams(core.params, w.Chain.Params()); err != nil {
			w.Close()
			f.Close()
			return nil, fmt.Errorf("fleet: model factory is not deterministic (%s): %w", w.Spec.Name, err)
		}
		f.workers = append(f.workers, w)
		if w.Shard.Len() > 0 {
			f.active = append(f.active, i)
		}
	}
	return f, nil
}

// NewWorker builds one standalone fleet member: worker index of total, model
// replica from the factory, shard index of the dataset (trainer.Shard), the
// given local batch size, per-round epoch count and optimiser, and the
// budget-aware checkpoint planning the spec's budget selects. This is the
// per-worker half of New, exported so a remote worker process (package coord)
// runs exactly the code path an in-process fleet member does — the root of
// the distributed-equals-local bit-identity guarantee. Callers own the
// returned worker and must Close it.
func NewWorker(spec WorkerSpec, index, total int, model func() (*chain.Chain, error), ds trainer.Dataset, batchSize, localEpochs int, opt trainer.Optimizer) (*Worker, error) {
	if index < 0 || index >= total {
		return nil, fmt.Errorf("fleet: worker index %d outside fleet of %d", index, total)
	}
	if model == nil || ds == nil || opt == nil {
		return nil, fmt.Errorf("fleet: nil model factory, dataset or optimizer")
	}
	if localEpochs <= 0 {
		localEpochs = 1
	}
	if spec.Name == "" {
		name := spec.Device.Name
		if name == "" {
			name = "node"
		}
		spec.Name = fmt.Sprintf("w%d-%s", index, name)
	}
	if spec.BudgetBytes <= 0 {
		spec.BudgetBytes = spec.Device.MemoryBytes
	}
	replica, err := model()
	if err != nil {
		return nil, fmt.Errorf("fleet: building %s replica: %w", spec.Name, err)
	}
	if replica == nil || replica.Len() == 0 {
		return nil, fmt.Errorf("fleet: model factory produced an empty chain for %s", spec.Name)
	}
	w := &Worker{
		Index:       index,
		Spec:        spec,
		Chain:       replica,
		Shard:       trainer.Shard(ds, total, index),
		opt:         opt,
		batch:       batchSize,
		localEpochs: localEpochs,
	}
	if err := w.configurePlanning(); err != nil {
		return nil, err
	}
	return w, nil
}

// Close releases the worker's spill store. Workers owned by a Fleet are
// closed by Fleet.Close; standalone workers (NewWorker) must be closed by
// their creator.
func (w *Worker) Close() error {
	if w.spill == nil {
		return nil
	}
	err := w.spill.Close()
	w.spill = nil
	return err
}

// AddProgress advances the worker's durable progress counters after its
// update was folded into the global model.
func (w *Worker) AddProgress(rounds, samples int64) {
	w.roundsDone += rounds
	w.samplesDone += samples
}

// configurePlanning runs the budget-aware selection once, from the worker's
// shard and budget: the report shows the choice, every step executes exactly
// it, and only a choice with a flash tier gets a spill store.
func (w *Worker) configurePlanning() error {
	if w.Shard.Len() == 0 {
		// An idle worker never executes a step; keep the zero Choice and the
		// default (store-all) policy.
		return nil
	}
	size := w.batch
	if size <= 0 || size > w.Shard.Len() {
		size = w.Shard.Len()
	}
	probe := w.Shard.Batch(0, size)
	if size == w.Shard.Len() {
		w.fullBatch = probe // seed the RoundBatch cache
	}
	spec := chain.Policy{}.Spec(w.Chain, probe.Images)
	choice, err := plan.AutoSelect(spec, plan.Options{MemoryBudget: w.Spec.BudgetBytes})
	if err != nil {
		return fmt.Errorf("fleet: %s (budget %d bytes): %w", w.Spec.Name, w.Spec.BudgetBytes, err)
	}
	w.Choice = choice
	w.policy = chain.Policy{Kind: choice.Strategy, Slots: choice.Slots, DiskSlots: choice.DiskSlots}
	if choice.DiskSlots > 0 {
		spill, err := store.NewTiered(w.Spec.SpillDir)
		if err != nil {
			return fmt.Errorf("fleet: %s spill store: %w", w.Spec.Name, err)
		}
		w.spill = spill
		w.policy.Store = spill
	}
	return nil
}

// sameParams verifies two parameter lists are structurally and bit-wise
// identical.
func sameParams(a, b []*nn.Param) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d parameters vs %d", len(a), len(b))
	}
	for i := range a {
		av, bv := a[i].Value.Data(), b[i].Value.Data()
		if len(av) != len(bv) {
			return fmt.Errorf("parameter %s: %d values vs %d", a[i].Name, len(av), len(bv))
		}
		for j := range av {
			if av[j] != bv[j] {
				return fmt.Errorf("parameter %s differs at element %d", a[i].Name, j)
			}
		}
	}
	return nil
}

// Global returns the global model the aggregation rounds update.
//
// Aggregation exchanges trainable parameters only. Layer state outside
// Params() — batch normalisation running mean/variance — is updated on the
// workers during their local forward passes but never folded back, so the
// global chain keeps its initial running statistics (the classic FedAvg/
// batch-norm caveat). Before evaluating the global model in inference mode,
// calibrate those statistics with a few forward passes in training mode
// over representative data, or evaluate on a worker replica instead.
func (f *Fleet) Global() *chain.Chain { return f.core.global }

// Workers returns the fleet members.
func (f *Fleet) Workers() []*Worker { return f.workers }

// ModelBytes returns the size of one full-model update on the wire (the
// serialised fp64 parameter payload), the unit of the traffic accounting.
func (f *Fleet) ModelBytes() int64 { return f.core.modelBytes }

// Close releases the workers' spill stores.
func (f *Fleet) Close() error {
	var first error
	for _, w := range f.workers {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// roundRNG derives the deterministic generator for one round's fleet
// decisions. It depends only on the seed and the round index, so Round(r)
// draws identically whether or not earlier rounds ran.
func (f *Fleet) roundRNG(round int) *tensor.RNG {
	return tensor.NewRNG(f.cfg.Seed ^ (uint64(round+1) * 0x9e3779b97f4a7c15))
}

// Round executes one aggregation round: select participants, broadcast the
// global parameters, run the participants concurrently (with any configured
// straggler delays and dropout failures), fold the surviving updates in
// ascending worker order, and account the round's traffic.
//
// Every stochastic decision is drawn from a per-round seeded generator in
// worker-index order before any goroutine starts, and the fold order is
// fixed, so the updated global parameters are bit-identical regardless of
// how the goroutines are scheduled.
func (f *Fleet) Round(round int) (rs RoundStats, err error) {
	roundStart := time.Now()
	tr := obs.DefaultTracer()
	roundSpan := tr.Span("round", round, -1)
	// A span is recorded only when it ends, and the round an operator most
	// needs to find in /trace is the one that failed: end it on every path.
	defer func() { roundSpan.EndErr(err) }()
	n := len(f.workers)
	rs = f.core.BeginRound(round, n)

	// Deterministic pre-draws: participants, then dropout, in index order.
	rng := f.roundRNG(round)
	participants := f.selectParticipants(rng)
	dropped := make([]bool, n)
	if f.cfg.DropoutRate > 0 {
		for _, i := range participants {
			dropped[i] = rng.Float64() < f.cfg.DropoutRate
		}
	}

	// Broadcast: every participant downloads the current global model.
	bSpan := tr.Span("broadcast", round, -1)
	for _, i := range participants {
		for k, p := range f.workers[i].Chain.Params() {
			copy(p.Value.Data(), f.core.params[k].Value.Data())
		}
		f.core.Broadcast(&rs, i)
	}
	bSpan.End()

	// Concurrent local computation, one goroutine per surviving participant.
	// Goroutine i writes only updates[i], errs[i], encBytes[i] and
	// rs.Workers[i] (and its own compressor's residual state).
	updates := make([]*Update, n)
	errs := make([]error, n)
	encBytes := make([]int64, n)
	var wg sync.WaitGroup
	for _, i := range participants {
		if dropped[i] {
			rs.Workers[i].Dropped = true
			rs.Dropouts++
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws := &rs.Workers[i]
			if f.cfg.StragglerDelay != nil {
				if d := f.cfg.StragglerDelay(round, i); d > 0 {
					ws.Delay = d
					time.Sleep(d)
				}
			}
			start := time.Now()
			ltSpan := tr.Span("local-train", round, i)
			u, err := f.core.agg.Local(f.workers[i], round)
			ltSpan.End()
			ws.Duration = time.Since(start)
			if err != nil {
				errs[i] = err
				return
			}
			u.Worker = i
			// Compression: encode the update, then replace its tensors with
			// the decoded reconstruction — the fold sees exactly what a
			// network peer would, and ValidateUpdate screens the decoded
			// values (a NaN surfacing only after dequantization is caught
			// here, same as on the raw path).
			if f.comps != nil && u.Samples > 0 {
				upSpan := tr.Span("upload", round, i)
				enc, err := f.comps[i].Encode(u.Vecs)
				if err != nil {
					errs[i] = err
					return
				}
				dec, err := compress.Decode(enc.Data)
				if err != nil {
					errs[i] = err
					return
				}
				u.Vecs = dec.Vecs
				encBytes[i] = int64(len(enc.Data))
				upSpan.EndDetail(fmt.Sprintf("bytes=%d", encBytes[i]))
			}
			updates[i] = &u
		}(i)
	}
	wg.Wait()

	for i, werr := range errs {
		if werr != nil {
			return rs, fmt.Errorf("fleet: round %d: worker %s: %w", round, f.workers[i].Spec.Name, werr)
		}
	}
	if err := f.core.Commit(&rs, updates, encBytes); err != nil {
		return rs, err
	}
	for i := range rs.Workers {
		if ws := &rs.Workers[i]; ws.Samples > 0 {
			f.workers[i].AddProgress(1, int64(ws.Samples))
		}
	}
	f.rawSent += rs.RawUplinkBytes
	f.encSent += rs.UplinkBytes
	rs.WallClock = time.Since(roundStart)
	return rs, nil
}

// selectParticipants draws the round's participant set from the workers
// with non-empty shards (an idle worker has nothing to train or upload, so
// it exchanges no traffic either): all of them under full participation,
// otherwise a uniform subset of the size edgesim.ParticipantsPerRound
// prescribes, returned in ascending order.
func (f *Fleet) selectParticipants(rng *tensor.RNG) []int {
	n := len(f.active)
	k := edgesim.ParticipantsPerRound(n, f.cfg.Participation)
	if k >= n {
		return f.active
	}
	perm := rng.Perm(n)[:k]
	sel := make([]int, 0, k)
	for _, p := range perm {
		sel = append(sel, f.active[p])
	}
	sort.Ints(sel)
	return sel
}

// Run executes the configured number of rounds and assembles the report. It
// is RunFrom from round zero with no checkpointing.
func (f *Fleet) Run() (*Report, error) {
	return f.RunFrom(0, nil, 0)
}

// FederatedModel maps a measured fleet run onto the analytical federated
// model of internal/edgesim: the same count of trainable (non-idle)
// workers, round count, measured full-model update size and participation
// fraction, over the default node workload. edgesim.SimulateFederated on
// the returned config reproduces the fleet's measured uplink and downlink
// byte totals exactly (absent dropout, which the analytical model does not
// represent), which is the cross-validation between the executable system
// and the cost model.
func (f *Fleet) FederatedModel() edgesim.FederatedConfig {
	fc := edgesim.DefaultFleetConfig()
	fc.Nodes = len(f.active)
	fc.Node.ModelBytes = f.core.modelBytes
	// With compression enabled, hand the analytical model the measured
	// encoded-to-raw uplink fraction, so its predicted traffic tracks what
	// the codec actually achieved on this run's updates (call after Run;
	// before any round the fraction defaults to 1).
	fraction := 1.0
	if f.core.spec.Enabled() && f.rawSent > 0 {
		fraction = float64(f.encSent) / float64(f.rawSent)
		if fraction > 1 {
			fraction = 1
		}
	}
	return edgesim.FederatedConfig{
		Fleet:          fc,
		Rounds:         f.cfg.Rounds,
		UpdateFraction: fraction,
		Participation:  f.cfg.Participation,
	}
}
