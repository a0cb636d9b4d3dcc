// Command fleettrainer trains a student model across a fleet of concurrent
// simulated edge workers: every node owns a device profile, a RAM budget that
// auto-selects its checkpoint strategy, a tiered flash spill store, and a
// non-IID shard of the synthetic viewpoint data. Rounds aggregate either by
// federated averaging or synchronous gradient all-reduce, under optional
// straggler delays, worker dropout and partial participation; the run ends
// with the measured traffic cross-checked against the analytical federated
// model of the paper's Section I analysis.
//
// Usage:
//
//	fleettrainer                                             # 4 Waggle nodes, fedavg
//	fleettrainer -nodes 6 -device-mix waggle,jetson,rpi      # heterogeneous fleet
//	fleettrainer -budget 280KB,210KB,201KB                   # budgets forcing mixed strategies
//	fleettrainer -agg allreduce -rounds 8                    # synchronous data-parallel SGD
//	fleettrainer -compress topk:0.05+int8+deflate            # sparsified, quantized uploads
//	fleettrainer -dropout 0.2 -participation 0.5 -straggler 100ms
//	fleettrainer -checkpoint-dir fleet1 -checkpoint-every 2  # durable round checkpoints
//	fleettrainer -resume fleet1                              # continue a killed fleet
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/edgesim"
	"github.com/edgeml/edgetrain/internal/fleetdemo"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
)

func main() {
	nodes := flag.Int("nodes", 4, "number of fleet workers")
	deviceMix := flag.String("device-mix", "waggle", "comma-separated device names cycled across workers (waggle, jetson, rpi, cloud)")
	budget := flag.String("budget", "device", "per-worker RAM budget: 'device' (the node's memory), a size like 96KB, or a comma-separated list cycled across workers")
	agg := flag.String("agg", "fedavg", "aggregation mode: fedavg or allreduce")
	rounds := flag.Int("rounds", 4, "aggregation rounds")
	localEpochs := flag.Int("local-epochs", 1, "fedavg local epochs per round")
	batch := flag.Int("batch", 0, "local batch size (0 = one full-shard batch)")
	samples := flag.Int("samples", 48, "total synthetic training samples across the fleet")
	dropout := flag.Float64("dropout", 0, "per-round probability a selected worker fails before uploading")
	participation := flag.Float64("participation", 1, "fraction of workers selected per round")
	straggler := flag.Duration("straggler", 0, "maximum injected straggler delay per worker per round")
	lr := flag.Float64("lr", 0.05, "learning rate")
	seed := flag.Uint64("seed", 1, "random seed")
	compressSpec := flag.String("compress", "", "update codec spec, e.g. topk:0.05+int8+deflate (empty or 'none' disables)")
	uplinkMbps := flag.Float64("uplink-mbps", 10, "modeled uplink rate behind the report's upload times")
	ckptDir := flag.String("checkpoint-dir", "", "directory for durable round checkpoints")
	ckptEvery := flag.Int("checkpoint-every", 1, "rounds between durable checkpoints")
	resume := flag.String("resume", "", "resume from the durable checkpoints in this directory (requires the original -seed)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this address (empty disables)")
	flag.Parse()

	if *nodes <= 0 {
		log.Fatal("need at least one node")
	}
	if *metricsAddr != "" {
		obs.SetDefault(obs.NewRegistry())
		obs.SetDefaultTracer(obs.NewTracer(obs.DefaultTraceEvents))
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Endpoints{})
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		fmt.Printf("metrics on %s\n", bound)
	}

	// Device mix and budgets, cycled across the fleet.
	var devices []device.Device
	for _, name := range strings.Split(*deviceMix, ",") {
		d, err := device.ByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		devices = append(devices, d)
	}
	var budgets []int64 // -1 means "use the device memory"
	for _, b := range strings.Split(*budget, ",") {
		b = strings.TrimSpace(b)
		if b == "" || b == "device" {
			budgets = append(budgets, -1)
			continue
		}
		v, err := memmodel.ParseBytes(b)
		if err != nil {
			log.Fatal(err)
		}
		budgets = append(budgets, v)
	}
	specs := make([]fleet.WorkerSpec, *nodes)
	for i := range specs {
		specs[i] = fleet.WorkerSpec{Device: devices[i%len(devices)]}
		if b := budgets[i%len(budgets)]; b > 0 {
			specs[i].BudgetBytes = b
		}
	}

	// Shared demo builders: the same non-IID viewpoint shards and small
	// ResNet the distributed edgecoord/edgeworker pair reconstructs, so a
	// fleettrainer run is the in-process reference for a distributed one.
	dataset := fleetdemo.Dataset(*nodes, *samples, *seed)
	model := fleetdemo.Model(*seed)

	aggregator, err := fleet.NewAggregator(*agg, trainer.NewSGD(*lr))
	if err != nil {
		log.Fatal(err)
	}
	cfg := fleet.Config{
		Workers:       specs,
		Rounds:        *rounds,
		LocalEpochs:   *localEpochs,
		BatchSize:     *batch,
		Optimizer:     func() trainer.Optimizer { return trainer.NewSGD(*lr) },
		Aggregator:    aggregator,
		Seed:          *seed,
		Participation: *participation,
		DropoutRate:   *dropout,
		Compression:   *compressSpec,
		UplinkMbps:    *uplinkMbps,
	}
	if *straggler > 0 {
		maxDelay := *straggler
		cfg.StragglerDelay = func(round, worker int) time.Duration {
			// Deterministic spread: later workers straggle more, shifted by
			// round so the slowest node rotates.
			return maxDelay * time.Duration((worker+round)%*nodes) / time.Duration(*nodes)
		}
	}

	f, err := fleet.New(cfg, model, dataset)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// Durable round checkpoints and crash-safe resume. A -resume path must
	// hold a checkpoint slot (rejected with a clear error otherwise, and a
	// directory in the old MANIFEST layout is refused by name); new
	// checkpoints continue into -checkpoint-dir when given, else into the
	// resume path.
	startRound := 0
	resumeDir, dir, err := ckpt.OpenResume(*resume, *ckptDir)
	if err != nil {
		log.Fatalf("cannot resume: %v", err)
	}
	if resumeDir != nil {
		startRound, err = f.ResumeFrom(resumeDir)
		if err != nil {
			log.Fatalf("cannot resume from %q: %v", *resume, err)
		}
		fmt.Printf("resumed from %s at round %d\n", *resume, startRound)
	}

	fmt.Printf("fleet training: %d workers, %s aggregation, %d rounds, %d samples (non-IID shards)\n",
		*nodes, aggregator.Name(), *rounds, dataset.Len())
	if *compressSpec != "" && *compressSpec != "none" {
		fmt.Printf("update compression: %s at %g Mbps modeled uplink\n", *compressSpec, *uplinkMbps)
	}
	fmt.Printf("parallelism: %d workers (EDGETRAIN_WORKERS overrides)\n", parallel.Workers())
	if dir != nil {
		fmt.Printf("checkpointing to %s every %d round(s)\n", dir.Path(), *ckptEvery)
	} else {
		fmt.Println("durable checkpoints: disabled (use -checkpoint-dir)")
	}
	for _, w := range f.Workers() {
		if w.Choice.Strategy == "" {
			fmt.Printf("  %-20s idle (empty shard)\n", w.Spec.Name)
			continue
		}
		fmt.Printf("  %-20s budget %8.2f MB -> %s\n",
			w.Spec.Name, float64(w.Spec.BudgetBytes)/1e6, w.Choice)
	}

	rep, err := f.RunFrom(startRound, dir, *ckptEvery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Render())

	// Cross-check the measured traffic against the analytical federated
	// model (Section I's "excessive communication" analysis).
	fed, _, err := edgesim.SimulateFederated(f.FederatedModel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("analytical cross-check (edgesim.SimulateFederated):\n")
	fmt.Printf("  uplink:   measured %.2f MB, modeled %.2f MB\n",
		float64(rep.TotalUplinkBytes)/1e6, float64(fed.UplinkBytes)/1e6)
	fmt.Printf("  downlink: measured %.2f MB, modeled %.2f MB\n",
		float64(rep.TotalDownlinkBytes)/1e6, float64(fed.DownlinkBytes)/1e6)
	if *dropout == 0 && rep.Compression != "" {
		// The analytical model quantizes the per-round update size to whole
		// bytes, so with compression the cross-check is approximate.
		fmt.Printf("  (compression: modeled uplink uses the measured update fraction, downlink is exact)\n")
	} else if *dropout == 0 {
		match := fed.UplinkBytes == rep.TotalUplinkBytes && fed.DownlinkBytes == rep.TotalDownlinkBytes
		fmt.Printf("  agreement: %v\n", match)
	} else {
		// Dropped workers received the broadcast but never uploaded, so
		// downlink still agrees exactly; only uplink falls short.
		fmt.Printf("  downlink agreement: %v (dropped workers still downloaded)\n",
			fed.DownlinkBytes == rep.TotalDownlinkBytes)
		fmt.Printf("  (dropout makes the measured uplink fall short of the model)\n")
	}
}
