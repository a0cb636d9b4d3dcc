// Fleet training demo: the paper's headline claim — training distributed
// across a fleet of low-powered heterogeneous edge nodes — made executable.
//
// Three workers (Jetson-class, Waggle-class, Raspberry-class) train one
// student model on non-IID shards of the synthetic viewpoint data. Their RAM
// budgets differ, so each auto-selects a different checkpoint plan: the
// Jetson stores every activation, the Waggle node runs Revolve with two
// slots, and the Pi Revolve with one. On this model no flash-checkpoint count
// beats Revolve once flash costs one forward step per state written or read,
// so the Pi does not spill; examples/flash_spill shows a chain where it
// pays. The demo then shows both aggregation modes:
//
//  1. Synchronous gradient all-reduce, verified bit-identical to
//     single-node training on the concatenated dataset — heterogeneous
//     strategies change where checkpoints live, never the gradients.
//  2. Federated averaging with a straggler and partial participation, the
//     realistic fleet scenario, cross-checked against the analytical
//     federated traffic model.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/edgesim"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
)

const (
	workers   = 3
	perNode   = 4
	imgSize   = 16
	rounds    = 3
	learnRate = 0.05
)

func model() (*chain.Chain, error) {
	cfg := resnet.DefaultSmallConfig()
	cfg.NumClasses = vision.NumClasses
	cfg.Seed = 1
	net, err := resnet.BuildSmall(cfg)
	if err != nil {
		return nil, err
	}
	return chain.FromSequential(net), nil
}

// dataset builds one contiguous block of samples per node, each with the
// node's own viewpoint skew — the non-IID sharding trainer.Shard preserves.
func dataset() *trainer.SliceDataset {
	rng := tensor.NewRNG(2)
	var ds []trainer.Batch
	for node := 0; node < workers; node++ {
		vp := 0.2 + 0.35*float64(node)
		for j := 0; j < perNode; j++ {
			c := vision.Class(j % vision.NumClasses)
			ds = append(ds, trainer.Batch{Images: vision.Sample(rng, c, vp, imgSize), Labels: []int{int(c)}})
		}
	}
	return trainer.NewSliceDataset(ds)
}

// specs gives each device a budget just above what its plan needs, so the
// auto planner picks three different plans for the same network.
func specs() []fleet.WorkerSpec {
	c, err := model()
	if err != nil {
		log.Fatal(err)
	}
	weight := 2 * nn.ParamBytes(c.Stages)
	act := int64(perNode * imgSize * imgSize * 8)
	budget := func(states float64) int64 { return weight + int64(states*float64(act)) }
	return []fleet.WorkerSpec{
		{Device: device.JetsonNano(), BudgetBytes: budget(12)},   // fits store-all
		{Device: device.Waggle(), BudgetBytes: budget(4.5)},      // Revolve recomputation
		{Device: device.RaspberryPi(), BudgetBytes: budget(3.4)}, // Revolve with one slot
	}
}

func main() {
	ds := dataset()

	// --- Part 1: gradient all-reduce, provably equivalent to one node ----
	f, err := fleet.New(fleet.Config{
		Workers:    specs(),
		Rounds:     rounds,
		Seed:       1,
		Aggregator: fleet.NewGradAllReduce(trainer.NewSGD(learnRate)),
	}, model, ds)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	fmt.Println("heterogeneous fleet, one model:")
	for _, w := range f.Workers() {
		fmt.Printf("  %-22s %s\n", w.Spec.Name, w.Choice)
	}
	rep, err := f.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Render())

	// Single-node reference: gradient accumulation over the concatenated
	// shards with the shard size as micro-batch, same optimiser.
	ref, err := model()
	if err != nil {
		log.Fatal(err)
	}
	refOpt := trainer.NewSGD(learnRate)
	union := ds.Batch(0, ds.Len())
	for r := 0; r < rounds; r++ {
		if _, err := trainer.AccumulateStep(ref, union, perNode, refOpt, chain.Policy{Kind: "storeall"}); err != nil {
			log.Fatal(err)
		}
	}
	identical := true
	fleetPs, refPs := f.Global().Params(), ref.Params()
	for k := range refPs {
		fd, rd := fleetPs[k].Value.Data(), refPs[k].Value.Data()
		for j := range fd {
			if fd[j] != rd[j] {
				identical = false
			}
		}
	}
	fmt.Printf("\nall-reduce weights bit-identical to single-node training on the union: %v\n\n", identical)

	// --- Part 2: federated averaging under fleet-scale failure modes -----
	fed, err := fleet.New(fleet.Config{
		Workers:       specs(),
		Rounds:        rounds,
		LocalEpochs:   2,
		Seed:          1,
		Participation: 1,
		DropoutRate:   0.15,
		StragglerDelay: func(round, worker int) time.Duration {
			if worker == 2 {
				return 20 * time.Millisecond // the Pi is always late
			}
			return 0
		},
	}, model, ds)
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()
	fedRep, err := fed.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fedRep.Render())

	sim, _, err := edgesim.SimulateFederated(fed.FederatedModel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalytical federated model: %.2f MB uplink vs %.2f MB measured (dropout accounts for the gap)\n",
		float64(sim.UplinkBytes)/1e6, float64(fedRep.TotalUplinkBytes)/1e6)
}
