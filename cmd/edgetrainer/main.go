// Command edgetrainer trains a scaled-down ResNet student on synthetic
// viewpoint data under a chosen checkpointing policy, reporting what the run
// would cost on a Waggle-class Edge node: peak retained states/bytes,
// recompute overhead, step time and how long the job takes when it may only
// use the node's idle CPU time.
//
// Usage:
//
// The -policy flag accepts any strategy of the public plan package
// (storeall, revolve, sequential, twolevel, auto).
//
//	edgetrainer                                   # store-all baseline
//	edgetrainer -policy revolve -slots 3          # optimal checkpointing
//	edgetrainer -policy revolve -rho 1.8          # slot count chosen from a rho budget
//	edgetrainer -policy sequential -segments 4    # PyTorch-style baseline
//	edgetrainer -policy auto -budget 2MB          # cheapest strategy fitting a RAM budget
//	edgetrainer -policy auto -device waggle       # budget from the device's memory
//	edgetrainer -policy twolevel -slots 2 -disk-slots 3   # real flash spilling
//	edgetrainer -checkpoint-dir run1 -checkpoint-every 10   # durable checkpoints
//	edgetrainer -resume run1                      # continue a killed run
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/obs"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/store"
)

func main() {
	policy := flag.String("policy", "storeall",
		"checkpointing strategy: "+strings.Join(plan.Strategies(), ", "))
	slots := flag.Int("slots", 0, "checkpoint slots for the revolve policy")
	rho := flag.Float64("rho", 0, "recompute budget for the revolve policy (used when -slots is 0)")
	segments := flag.Int("segments", 4, "segments for the sequential policy")
	diskSlots := flag.Int("disk-slots", 0, "flash checkpoints for the twolevel policy")
	budget := flag.String("budget", "", "RAM byte budget for the auto policy, e.g. 2MB or 1500000")
	deviceName := flag.String("device", "", "device whose memory defaults the budget: waggle or cloud")
	spillDir := flag.String("spill-dir", "", "directory for the checkpoints a schedule puts on flash (default: a temporary directory)")
	epochs := flag.Int("epochs", 3, "training epochs")
	batch := flag.Int("batch", 8, "batch size")
	samples := flag.Int("samples", 160, "synthetic training samples")
	viewpoint := flag.Float64("viewpoint", 0.8, "node viewpoint skew in [0,1]")
	seed := flag.Uint64("seed", 1, "random seed")
	ckptDir := flag.String("checkpoint-dir", "", "directory for durable training checkpoints")
	ckptEvery := flag.Int("checkpoint-every", 10,
		"optimisation steps between durable checkpoints; each is written in the background beside the next step's forward and backward passes and is durable before that step's optimizer update (it reads the live model: no copy of the weights or optimizer state)")
	resume := flag.String("resume", "", "resume from the durable checkpoints in this directory")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this address (empty disables)")
	flag.Parse()

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

	cfg := resnet.DefaultSmallConfig()
	cfg.NumClasses = vision.NumClasses
	cfg.Seed = *seed
	net, err := resnet.BuildSmall(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c := chain.FromSequential(net)

	rng := tensor.NewRNG(*seed + 1)
	set := vision.Dataset(rng, *samples, *viewpoint, 16)
	var ds []trainer.Batch
	for i := range set.Images {
		ds = append(ds, trainer.Batch{Images: set.Images[i], Labels: []int{set.Labels[i]}})
	}
	dataset := trainer.NewSliceDataset(ds)

	pol := chain.Policy{Kind: *policy, Slots: *slots, Segments: *segments, DiskSlots: *diskSlots, Rho: *rho}

	// Budget-aware planning: an explicit -budget wins, otherwise -device
	// donates its memory capacity.
	if *budget != "" {
		b, err := memmodel.ParseBytes(*budget)
		if err != nil {
			log.Fatal(err)
		}
		pol.MemoryBudget = b
	} else if *deviceName != "" {
		d, err := device.ByName(*deviceName)
		if err != nil {
			log.Fatal(err)
		}
		pol.MemoryBudget = d.MemoryBytes
	}

	// One tiered store serves the whole run, whatever the policy: each
	// snapshot stays in RAM or spills into -spill-dir as its schedule's tier
	// says, and the store's counters accumulate across steps.
	ts, err := store.NewTiered(*spillDir)
	if err != nil {
		log.Fatal(err)
	}
	defer ts.Close()
	pol.Store = ts

	tr, err := trainer.New(c, trainer.Config{
		Epochs:    *epochs,
		BatchSize: *batch,
		Optimizer: trainer.NewAdam(0.01),
		Policy:    pol,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Durable checkpointing and crash-safe resume. A -resume path must hold a
	// checkpoint slot (it is rejected with a clear error otherwise, and a
	// directory in the old MANIFEST layout is refused by name); new
	// checkpoints continue into -checkpoint-dir when given, else into the
	// resume path.
	start := trainer.Cursor{}
	var cp *trainer.CheckpointPlan
	resumeDir, saveDir, err := ckpt.OpenResume(*resume, *ckptDir)
	if err != nil {
		log.Fatalf("cannot resume: %v", err)
	}
	if saveDir != nil {
		cp = &trainer.CheckpointPlan{Dir: saveDir, EverySteps: *ckptEvery, Seed: *seed}
	}
	if resumeDir != nil {
		s, name, err := resumeDir.Load()
		if err != nil {
			log.Fatalf("cannot resume from %q: %v", *resume, err)
		}
		// The dataset and the model initialisation both derive from -seed, so
		// resuming under a different seed would silently break bit-identity
		// with the original run. Compared unconditionally: 0 is a legal seed,
		// and edgetrainer always stamps its own into the checkpoints.
		if s.Seed != *seed {
			log.Fatalf("cannot resume from %q: %s was written with -seed %d, this run uses -seed %d",
				*resume, name, s.Seed, *seed)
		}
		cur, err := tr.RestoreSession(s)
		if err != nil {
			log.Fatalf("cannot resume from %q: restoring %s: %v", *resume, name, err)
		}
		start = cur
		fmt.Printf("resumed from %s at epoch %d, batch %d\n", *resume, cur.Epoch, cur.Batch)
	}

	fmt.Printf("edge student training: %d-stage %s, policy=%s, batch=%d, viewpoint=%.2f\n",
		c.Len(), cfg.Variant, *policy, *batch, *viewpoint)
	fmt.Printf("parallelism: %d workers (EDGETRAIN_WORKERS overrides)\n", parallel.Workers())
	if cp != nil {
		fmt.Printf("checkpointing to %s every %d steps\n", cp.Dir.Path(), cp.EverySteps)
	} else {
		fmt.Println("durable checkpoints: disabled (use -checkpoint-dir)")
	}
	// The chain's memory shape as Step plans it: the auto printout and the
	// resident-vs-budget line below both read it.
	var spec plan.ChainSpec
	if pol.MemoryBudget > 0 {
		spec = pol.Spec(c, dataset.Batch(0, *batch).Images)
		// MiB, matching the binary units -budget accepts, so the echoed
		// number equals what the user typed.
		fmt.Printf("memory budget: %.2f MiB\n", float64(pol.MemoryBudget)/(1<<20))
		if *policy == "auto" {
			choice, err := plan.AutoSelect(spec, plan.Options{MemoryBudget: pol.MemoryBudget})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(choice)
		}
	}
	stats, err := tr.TrainFrom(dataset, start, cp)
	if err != nil {
		log.Fatal(err)
	}
	node := device.Waggle()
	var lastStats trainer.EpochStats
	for _, st := range stats {
		lastStats = st
		fmt.Printf("epoch %d: loss=%.4f acc=%.1f%% forwards=%d backwards=%d peak-states=%d peak-bytes=%.1f MB\n",
			st.Epoch, st.Loss, 100*st.Accuracy, st.ForwardEvals, st.BackwardEvals, st.PeakStates, float64(st.PeakStateBytes)/1e6)
		if st.DiskWrites > 0 || st.DiskReads > 0 {
			fmt.Printf("         spilled: peak-flash=%.1f MB writes=%d reads=%d\n",
				float64(st.PeakDiskBytes)/1e6, st.DiskWrites, st.DiskReads)
		}
	}
	if pol.MemoryBudget > 0 && lastStats.Steps > 0 {
		// The budget covers the whole resident training state, so compare
		// weights + retained states against it (the same accounting Step's
		// auto planning uses).
		weights := spec.WeightBytes
		resident := weights + lastStats.PeakStateBytes
		const mib = 1 << 20
		fmt.Printf("resident peak %.2f MiB (%.2f MiB weights + %.2f MiB states) vs budget %.2f MiB: fits=%v\n",
			float64(resident)/mib, float64(weights)/mib, float64(lastStats.PeakStateBytes)/mib,
			float64(pol.MemoryBudget)/mib, resident <= pol.MemoryBudget)
	}

	// Put the run into the context of the Waggle node.
	fmt.Printf("\nWaggle node context (%s):\n", node)
	perStepFLOPs := int64(2e8) // order-of-magnitude estimate for the small student
	stepSeconds := node.TrainingStepSeconds(perStepFLOPs)
	totalSteps := lastStats.Steps * *epochs
	cpuSeconds := stepSeconds * float64(totalSteps)
	fmt.Printf("  estimated CPU time for the whole job: %.1f s\n", cpuSeconds)
	sched := trainer.DefaultIdleScheduler
	res, err := sched.Schedule(trainer.DielLoadTrace(7, 600, 0.85, 0.15), cpuSeconds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  scheduled opportunistically (idle CPU only): finishes in %.1f h, utilisation %.1f%%, completed=%v\n",
		res.ElapsedSeconds/3600, 100*res.Utilisation, res.Completed)
}
