package fleet

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// Update is one worker's contribution to an aggregation round.
type Update struct {
	// Worker is the contributing worker's index (set by the engine).
	Worker int
	// Samples is the number of training samples behind the update; it is the
	// update's aggregation weight. Zero means "nothing to contribute" (an
	// empty shard) and the engine discards the update.
	Samples int
	// Loss is the worker's training loss for the round (FedAvg: the last
	// local epoch's mean; all-reduce: the round batch's loss).
	Loss float64
	// Vecs is the update payload, parallel to the global chain's Params():
	// parameter values for FedAvg, accumulated gradients for all-reduce.
	// The tensors must be owned by the update (cloned), never aliases of
	// live worker state.
	Vecs []*tensor.Tensor

	// Usage is what the local computation cost, for the round report.
	chain.Usage
}

// Aggregator defines what each worker computes in a round and how the
// round's results merge into the global model.
//
// The contract:
//
//   - Local runs on the worker's goroutine, concurrently with other workers.
//     It may mutate only its worker (the worker's model replica was loaded
//     with the current global parameters before the round started) and must
//     return payload tensors that are clones, not aliases of live state.
//
//   - Fold receives the surviving updates of the round sorted by ascending
//     worker index, each with Samples > 0, and merges them into the global
//     parameters. Fold MUST be deterministic given that ordered slice —
//     fold in the given order, never by completion time — so the global
//     model is bit-identical under any goroutine scheduling. Sample counts
//     are the aggregation weights.
//
//   - Fold is never called with an empty update set: a round in which every
//     participant dropped leaves the global model untouched.
type Aggregator interface {
	// Name identifies the mode in reports ("fedavg", "allreduce").
	Name() string
	// Local computes one worker's round contribution.
	Local(w *Worker, round int) (Update, error)
	// Fold merges the ordered updates into the global parameters.
	Fold(global []*nn.Param, updates []Update) error
}

// FedAvg implements federated averaging: every participant trains locally
// for the configured number of epochs under its own checkpoint policy and
// optimiser, then the global parameters are replaced by the sample-weighted
// average of the participants' parameters, folded in worker order.
type FedAvg struct{}

// NewFedAvg returns the federated-averaging aggregator.
func NewFedAvg() *FedAvg { return &FedAvg{} }

// Name implements Aggregator.
func (a *FedAvg) Name() string { return "fedavg" }

// Local implements Aggregator: local training on the worker's shard.
func (a *FedAvg) Local(w *Worker, round int) (Update, error) {
	u := Update{Worker: w.Index}
	if w.Shard.Len() == 0 {
		return u, nil
	}
	bs := w.batch
	if bs <= 0 {
		bs = w.Shard.Len()
	}
	tr, err := trainer.New(w.Chain, trainer.Config{
		Epochs:    w.localEpochs,
		BatchSize: bs,
		Optimizer: w.opt,
		Policy:    w.policy,
	})
	if err != nil {
		return u, err
	}
	stats, err := tr.Train(w.Shard)
	if err != nil {
		return u, err
	}
	u.Samples = w.Shard.Len()
	for _, st := range stats {
		u.Loss = st.Loss
		u.Usage.Add(st.Usage)
	}
	for _, p := range w.Chain.Params() {
		u.Vecs = append(u.Vecs, p.Value.Clone())
	}
	return u, nil
}

// Fold implements Aggregator: sample-weighted parameter averaging. Every
// update is validated (shapes, finiteness) before any global state changes.
func (a *FedAvg) Fold(global []*nn.Param, updates []Update) error {
	var total float64
	for _, u := range updates {
		if err := ValidateUpdate(global, u); err != nil {
			return err
		}
		total += float64(u.Samples)
	}
	if total == 0 {
		return fmt.Errorf("fleet: fedavg fold with no samples")
	}
	for k, p := range global {
		// The update vectors are owned clones (Aggregator contract) and the
		// old global value is not a fold input, so fold in place.
		p.Value.Zero()
		for _, u := range updates {
			p.Value.AxpyInPlace(float64(u.Samples)/total, u.Vecs[k])
		}
	}
	return nil
}

// GradAllReduce implements synchronous gradient all-reduce: every
// participant computes the gradient of its round batch (under its own
// checkpoint policy — heterogeneous strategies produce identical gradients),
// the gradients are averaged into the global parameters' Grad buffers, and
// one global optimiser step is applied.
//
// Equivalence guarantee: with full participation and equal-sized shards, the
// fold is a plain sum in worker order followed by a single 1/N scaling —
// exactly the association of single-node gradient accumulation over the
// same batches (trainer.AccumulateStep with the shard size as micro-batch).
// Together with the nn accumulation contract (one element-wise addition per
// Backward) and the bit-reproducible kernels, the updated global weights
// are bit-identical to single-node training on the concatenated dataset.
// Unequal shards fold with per-update sample weights instead, which is the
// mathematically correct weighting but rounds differently than a serial
// accumulation would.
type GradAllReduce struct {
	// Opt is the global optimiser applied after each fold.
	Opt trainer.Optimizer
}

// NewGradAllReduce returns the gradient all-reduce aggregator with the given
// global optimiser (SGD with learning rate 0.05 when nil).
func NewGradAllReduce(opt trainer.Optimizer) *GradAllReduce {
	if opt == nil {
		opt = trainer.NewSGD(0.05)
	}
	return &GradAllReduce{Opt: opt}
}

// Name implements Aggregator.
func (a *GradAllReduce) Name() string { return "allreduce" }

// Local implements Aggregator: one full forward/backward over the worker's
// round batch, gradients accumulated but not applied.
func (a *GradAllReduce) Local(w *Worker, round int) (Update, error) {
	u := Update{Worker: w.Index}
	batch := w.RoundBatch(round)
	if batch.Images == nil || len(batch.Labels) == 0 {
		return u, nil
	}
	w.Chain.ZeroGrads()
	ce := nn.NewSoftmaxCrossEntropy()
	var loss float64
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		loss = ce.Forward(out, batch.Labels)
		return ce.Backward()
	}
	res, err := chain.Step(w.Chain, batch.Images, lossGrad, w.policy, true)
	if err != nil {
		return u, err
	}
	u.Samples = len(batch.Labels)
	u.Loss = loss
	u.Usage = res.Usage
	for _, p := range w.Chain.Params() {
		u.Vecs = append(u.Vecs, p.Grad.Clone())
	}
	return u, nil
}

// Fold implements Aggregator: average the gradients into the global Grad
// buffers and apply one global optimiser step. Every update is validated
// (shapes, finiteness) before any global state changes.
func (a *GradAllReduce) Fold(global []*nn.Param, updates []Update) error {
	var total float64
	equal := true
	for _, u := range updates {
		if err := ValidateUpdate(global, u); err != nil {
			return err
		}
		total += float64(u.Samples)
		if u.Samples != updates[0].Samples {
			equal = false
		}
	}
	if total == 0 {
		return fmt.Errorf("fleet: allreduce fold with no samples")
	}
	for k, p := range global {
		g := p.Grad
		g.Zero()
		if equal {
			// Plain sum + one final scaling: the association single-node
			// gradient accumulation uses, hence bit-identical weights.
			for _, u := range updates {
				g.AddInPlace(u.Vecs[k])
			}
			g.ScaleInPlace(1 / float64(len(updates)))
		} else {
			for _, u := range updates {
				g.AxpyInPlace(float64(u.Samples)/total, u.Vecs[k])
			}
		}
	}
	a.Opt.Step(global)
	return nil
}

// NewAggregator resolves an aggregation mode by name ("fedavg" or
// "allreduce"), constructing the all-reduce global optimiser with opts.
func NewAggregator(name string, opt trainer.Optimizer) (Aggregator, error) {
	switch name {
	case "", "fedavg":
		return NewFedAvg(), nil
	case "allreduce", "all-reduce", "sync-sgd":
		return NewGradAllReduce(opt), nil
	default:
		return nil, fmt.Errorf("fleet: unknown aggregator %q (want fedavg or allreduce)", name)
	}
}
