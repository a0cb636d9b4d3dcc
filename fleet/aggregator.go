package fleet

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
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
	// parameter values for FedAvg, accumulated gradients for all-reduce. The
	// tensors are the worker replica's own, valid until its next round.
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
//     with the current global parameters before the round started). Its
//     payload is a view of the replica, valid until the worker's next round;
//     the engines consume it before then (the encode, or Commit's fold).
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
		u.Vecs = append(u.Vecs, p.Value)
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
	weights := sampleWeights(updates, total)
	for k, p := range global {
		// The update vectors are worker replicas, never the global model
		// (Aggregator contract), and the old global value is not a fold
		// input, so fold in place.
		fold(p.Value.Data(), updates, k, weights, 1)
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
	loss, res, err := trainer.LossStep(w.Chain, batch, w.policy)
	if err != nil {
		return u, err
	}
	u.Samples = len(batch.Labels)
	u.Loss = loss
	u.Usage = res.Usage
	for _, p := range w.Chain.Params() {
		u.Vecs = append(u.Vecs, p.Grad)
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
	weights, scale := sampleWeights(updates, total), 1.0
	if equal {
		// Plain sum + one final scaling: the association single-node
		// gradient accumulation uses, hence bit-identical weights. A weight
		// of 1 multiplies exactly.
		for i := range weights {
			weights[i] = 1
		}
		scale = 1 / float64(len(updates))
	}
	for k, p := range global {
		fold(p.Grad.Data(), updates, k, weights, scale)
	}
	a.Opt.Step(global)
	return nil
}

// sampleWeights is each update's share of the round's samples.
func sampleWeights(updates []Update, total float64) []float64 {
	w := make([]float64, len(updates))
	for i, u := range updates {
		w[i] = float64(u.Samples) / total
	}
	return w
}

// foldChunk is how many elements fold carries through every update at a
// time: 4 KB of the destination stays in L1 while each update streams past.
const foldChunk = 512

// fold is both aggregators' one kernel. It sets dst to
// (0 + w[0]·u[0] + w[1]·u[1] + …)·scale element-wise, where u[i] is the k-th
// tensor of updates[i], adding in slot order: the 0 + keeps the +0 a zeroed
// accumulator gave a −0 product, and scale 1 is skipped. It works one
// L1-sized chunk at a time, so dst is written once however many updates
// there are, and large tensors split across the worker team; every element
// is the same sum whoever computes it.
func fold(dst []float64, updates []Update, k int, w []float64, scale float64) {
	parallel.For(len(dst), 8192, func(lo, hi int) {
		for c := lo; c < hi; c += foldChunk {
			d := dst[c:min(c+foldChunk, hi)]
			for i, u := range updates {
				a, src := w[i], u.Vecs[k].Data()[c:c+len(d)]
				if i == 0 {
					for j, v := range src {
						d[j] = 0 + a*v
					}
					continue
				}
				for j, v := range src {
					d[j] += a * v
				}
			}
			if scale != 1 {
				for j := range d {
					d[j] *= scale
				}
			}
		}
	})
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
