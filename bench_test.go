package edgetrain

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations. Each benchmark both measures the cost of
// regenerating the artefact and reports the headline reproduced quantity via
// b.ReportMetric, so `go test -bench . -benchmem` doubles as an experiment
// log.

import (
	"fmt"
	"testing"

	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/edgesim"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/teacher"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/obs"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// --- E1-E3: Tables I, II, III -------------------------------------------------

func benchmarkTable(b *testing.B, build func(memmodel.Accounting) (*memmodel.Table, error)) {
	b.Helper()
	var tbl *memmodel.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = build(memmodel.DefaultAccounting)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the largest cell (the most memory-hungry configuration) in MB.
	last := tbl.Cells[len(tbl.Cells)-1]
	b.ReportMetric(last[len(last)-1].Footprint.MB(), "maxcell_MB")
}

// BenchmarkTable1 regenerates Table I (memory vs batch size at image 224).
func BenchmarkTable1(b *testing.B) { benchmarkTable(b, memmodel.Table1) }

// BenchmarkTable2 regenerates Table II (memory vs image size at batch 1).
func BenchmarkTable2(b *testing.B) { benchmarkTable(b, memmodel.Table2) }

// BenchmarkTable3 regenerates Table III (memory vs image size at batch 8).
func BenchmarkTable3(b *testing.B) { benchmarkTable(b, memmodel.Table3) }

// --- E4: Section V checkpoint_sequential formula ------------------------------

// BenchmarkSequentialFormula sweeps the Section V memory formula over all
// segment counts for l = 152 and reports the best achievable slot count next
// to the 2*sqrt(l) lower bound.
func BenchmarkSequentialFormula(b *testing.B) {
	const l = 152
	best := 0
	for i := 0; i < b.N; i++ {
		_, best = checkpoint.BestSequentialSegments(l)
	}
	b.ReportMetric(float64(best), "best_slots")
	b.ReportMetric(checkpoint.SequentialLowerBound(l), "lower_bound_slots")
}

// --- E5-E8: Figure 1 panels ----------------------------------------------------

func benchmarkFigurePanel(b *testing.B, cfg memmodel.FigureConfig) {
	b.Helper()
	rhos := memmodel.DefaultRhoGrid()
	var panel *memmodel.Panel
	var err error
	for i := 0; i < b.N; i++ {
		panel, err = memmodel.Figure1Panel(cfg, rhos, memmodel.DefaultAccounting, checkpoint.DefaultCostModel, checkpoint.MemoryVsRho)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the ResNet-152 peak memory at rho=2.0 in MB (the headline of the
	// panel) and at rho=1 for contrast.
	series := panel.Series[len(panel.Series)-1]
	var atOne, atTwo float64
	for i, rho := range panel.Rhos {
		if rho == 1.0 {
			atOne = float64(series.Points[i].MemoryBytes) / 1e6
		}
		if rho > 1.999 && rho < 2.001 {
			atTwo = float64(series.Points[i].MemoryBytes) / 1e6
		}
	}
	b.ReportMetric(atOne, "r152_rho1_MB")
	b.ReportMetric(atTwo, "r152_rho2_MB")
}

// BenchmarkFigure1a regenerates Figure 1a (batch 1, image 224).
func BenchmarkFigure1a(b *testing.B) { benchmarkFigurePanel(b, memmodel.Figure1Panels[0]) }

// BenchmarkFigure1b regenerates Figure 1b (batch 8, image 224).
func BenchmarkFigure1b(b *testing.B) { benchmarkFigurePanel(b, memmodel.Figure1Panels[1]) }

// BenchmarkFigure1c regenerates Figure 1c (batch 1, image 500).
func BenchmarkFigure1c(b *testing.B) { benchmarkFigurePanel(b, memmodel.Figure1Panels[2]) }

// BenchmarkFigure1d regenerates Figure 1d (batch 8, image 500).
func BenchmarkFigure1d(b *testing.B) { benchmarkFigurePanel(b, memmodel.Figure1Panels[3]) }

// --- E9: Section VI fit analysis ----------------------------------------------

// BenchmarkFitAnalysis computes, for every panel and variant, the minimal
// recompute factor at which the model fits the 2 GB node, and reports the
// worst case across the whole figure.
func BenchmarkFitAnalysis(b *testing.B) {
	var results []memmodel.FitResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = memmodel.FitAnalysis(memmodel.DefaultAccounting, checkpoint.DefaultCostModel, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range results {
		if r.FitsEventually && r.MinRhoToFit > worst {
			worst = r.MinRhoToFit
		}
	}
	b.ReportMetric(worst, "worst_rho_to_fit")
}

// --- E10: edge vs cloud training traffic (the "why") ---------------------------

// BenchmarkEdgeVsCloudTraffic runs the Array-of-Things fleet simulation and
// reports the uplink ratio between cloud training and in-situ training.
func BenchmarkEdgeVsCloudTraffic(b *testing.B) {
	var results []edgesim.Result
	var err error
	for i := 0; i < b.N; i++ {
		results, err = edgesim.Simulate(edgesim.DefaultFleetConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	var cloud, edge edgesim.Result
	for _, r := range results {
		switch r.Strategy {
		case edgesim.StrategyCloudTraining:
			cloud = r
		case edgesim.StrategyEdgeTraining:
			edge = r
		}
	}
	b.ReportMetric(float64(cloud.TotalNetworkBytes())/float64(edge.TotalNetworkBytes()), "traffic_ratio")
	b.ReportMetric(float64(cloud.SensitiveImagesShared), "images_exposed")
}

// --- E11: viewpoint student-teacher pipeline ------------------------------------

// BenchmarkStudentTeacher runs a reduced student-teacher pipeline and reports
// the accuracy gain of the in-situ trained student over the teacher at the
// node's viewpoint.
func BenchmarkStudentTeacher(b *testing.B) {
	cfg := teacher.DefaultConfig()
	cfg.TeacherSamples = 160
	cfg.Tracks = 24
	cfg.EvalSamples = 80
	cfg.StudentEpochs = 4
	var res *teacher.Result
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(7 + i)
		res, err = teacher.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.TeacherNodeAccuracy, "teacher_node_pct")
	b.ReportMetric(100*res.StudentNodeAccuracy, "student_node_pct")
}

// --- E12: checkpointed backpropagation on a real chain -------------------------

func buildBenchChain(seed uint64) (*chain.Chain, *tensor.Tensor, chain.LossGradFunc) {
	cfg := resnet.DefaultSmallConfig()
	cfg.Seed = seed
	net, err := resnet.BuildSmall(cfg)
	if err != nil {
		panic(err)
	}
	c := chain.FromSequential(net)
	rng := tensor.NewRNG(seed + 100)
	x := tensor.RandNormal(rng, 0, 1, 2, cfg.InputChannels, 16, 16)
	labels := []int{0, 3}
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		ce := nn.NewSoftmaxCrossEntropy()
		ce.Forward(out, labels)
		return ce.Backward()
	}
	return c, x, lossGrad
}

// BenchmarkCheckpointedBackpropPlain measures a plain (store-all) training
// step of the small ResNet.
func BenchmarkCheckpointedBackpropPlain(b *testing.B) {
	c, x, lossGrad := buildBenchChain(1)
	var res *chain.Result
	var err error
	for i := 0; i < b.N; i++ {
		c.ZeroGrads()
		res, err = chain.ExecutePlain(c, x, lossGrad, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PeakStates), "peak_states")
}

// BenchmarkCheckpointedBackpropRevolve measures the same training step under
// Revolve checkpointing with two slots and reports the measured recompute
// overhead and memory reduction.
func BenchmarkCheckpointedBackpropRevolve(b *testing.B) {
	c, x, lossGrad := buildBenchChain(1)
	sched, err := plan.Build("revolve", plan.ChainSpec{Length: c.Len()}, plan.Options{Slots: 2})
	if err != nil {
		b.Fatal(err)
	}
	var res *chain.Result
	for i := 0; i < b.N; i++ {
		c.ZeroGrads()
		res, err = chain.Execute(c, x, lossGrad, sched, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PeakStates), "peak_states")
	b.ReportMetric(float64(res.ForwardEvals), "recomputed_forwards")
}

// BenchmarkCheckpointedBackpropSequential measures the same step under the
// PyTorch-style uniform-segment policy.
func BenchmarkCheckpointedBackpropSequential(b *testing.B) {
	c, x, lossGrad := buildBenchChain(1)
	sched, err := plan.Build("sequential", plan.ChainSpec{Length: c.Len()}, plan.Options{Segments: 3})
	if err != nil {
		b.Fatal(err)
	}
	var res *chain.Result
	for i := 0; i < b.N; i++ {
		c.ZeroGrads()
		res, err = chain.Execute(c, x, lossGrad, sched, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PeakStates), "peak_states")
}

// BenchmarkTwoLevelStep measures the same training step under a two-level
// schedule in both execution modes: "ram" keeps the flash-tier boundaries as
// in-memory references (zero-copy, the pre-store baseline) and "spilled"
// serializes them to disk through a tiered store, so the real cost of flash
// spilling — serialization plus file I/O per boundary — is tracked from day
// one. The spilled run reports the flash traffic and the resident-RAM
// reduction it buys.
func BenchmarkTwoLevelStep(b *testing.B) {
	const ramSlots, diskSlots = 2, 3
	run := func(b *testing.B, makeStore func() (store.Store, error)) {
		c, x, lossGrad := buildBenchChain(1)
		sched, err := plan.Build("twolevel", plan.ChainSpec{Length: c.Len()},
			plan.Options{Slots: ramSlots, DiskSlots: diskSlots})
		if err != nil {
			b.Fatal(err)
		}
		st, err := makeStore()
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		var res *chain.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ZeroGrads()
			res, err = chain.ExecuteWithStore(c, x, lossGrad, sched, st, true)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.PeakStateBytes)/1e6, "resident_peak_MB")
		b.ReportMetric(float64(res.DiskWrites), "flash_writes")
		b.ReportMetric(float64(res.DiskReads), "flash_reads")
	}
	b.Run("ram", func(b *testing.B) {
		run(b, func() (store.Store, error) { return store.NewRAM(), nil })
	})
	b.Run("spilled", func(b *testing.B) {
		run(b, func() (store.Store, error) { return store.NewTiered(b.TempDir()) })
	})
}

// --- Ablations ------------------------------------------------------------------

// BenchmarkScheduleComparison compares the three scheduling policies at an
// equal recompute budget (rho = 2) on a 152-step chain and reports how many
// activations each retains.
func BenchmarkScheduleComparison(b *testing.B) {
	const l = 152
	cost := checkpoint.DefaultCostModel
	var revolveSlots, seqSlots int
	for i := 0; i < b.N; i++ {
		res := checkpoint.MinSlotsForRho(l, 2, cost)
		revolveSlots = res.Slots
		s, _, ok := checkpoint.MinSequentialSlotsForRho(l, 2, cost)
		if !ok {
			b.Fatal("sequential baseline infeasible at rho=2")
		}
		seqSlots = s
	}
	b.ReportMetric(float64(revolveSlots+1), "revolve_slots")
	b.ReportMetric(float64(seqSlots+1), "sequential_slots")
	b.ReportMetric(float64(l), "store_all_slots")
}

// BenchmarkHeterogeneousChain evaluates a Revolve schedule against the real
// (non-homogenised) per-operation activation sizes of ResNet-50 and reports
// the peak bytes, quantifying how much the LinearResNet approximation of
// Section VI distorts the memory estimate.
func BenchmarkHeterogeneousChain(b *testing.B) {
	states, err := memmodel.HeterogeneousStateBytes(resnet.ResNet50, 224, 1, memmodel.DefaultAccounting)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := plan.Build("revolve", plan.ChainSpec{Length: len(states) - 1}, plan.Options{Slots: 10})
	if err != nil {
		b.Fatal(err)
	}
	var peak int64
	for i := 0; i < b.N; i++ {
		peak, err = schedule.PeakBytes(sched, states)
		if err != nil {
			b.Fatal(err)
		}
	}
	lin, err := memmodel.LinearChain(resnet.ResNet50, 224, 1, memmodel.DefaultAccounting)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(peak)/1e6, "hetero_peak_MB")
	b.ReportMetric(float64(lin.MemoryWithSlots(10)-lin.WeightBytes)/1e6, "homog_peak_MB")
}

// BenchmarkOptimizerStateSensitivity regenerates Table I under Adam-style
// (16 B/param) and SGD-style (8 B/param) accounting and reports how much the
// batch-1 ResNet-152 footprint changes — the sensitivity of the fit analysis
// to the optimiser choice.
func BenchmarkOptimizerStateSensitivity(b *testing.B) {
	var adamMB, sgdMB float64
	for i := 0; i < b.N; i++ {
		adam, err := memmodel.Model(resnet.ResNet152, 224, 1, memmodel.DefaultAccounting)
		if err != nil {
			b.Fatal(err)
		}
		sgd, err := memmodel.Model(resnet.ResNet152, 224, 1, memmodel.SGDAccounting)
		if err != nil {
			b.Fatal(err)
		}
		adamMB, sgdMB = adam.MB(), sgd.MB()
	}
	b.ReportMetric(adamMB, "adam_MB")
	b.ReportMetric(sgdMB, "sgd_MB")
}

// BenchmarkBatchAmortization quantifies the remark at the end of Section VI:
// larger batches enabled by checkpointing amortise per-step overheads. It
// reports the recompute factor needed to fit batch 8 versus batch 1 for
// ResNet-50 at image 500 and the resulting steps per epoch.
func BenchmarkBatchAmortization(b *testing.B) {
	node := device.Waggle()
	var rho1, rho8 float64
	for i := 0; i < b.N; i++ {
		for _, batch := range []int{1, 8} {
			lin, err := memmodel.LinearChain(resnet.ResNet50, 500, batch, memmodel.DefaultAccounting)
			if err != nil {
				b.Fatal(err)
			}
			rho, _, ok := checkpoint.MinRhoToFit(lin, node.MemoryBytes, checkpoint.DefaultCostModel, 6)
			if !ok {
				rho = 6
			}
			if batch == 1 {
				rho1 = rho
			} else {
				rho8 = rho
			}
		}
	}
	const epochImages = 10000
	b.ReportMetric(rho1, "rho_batch1")
	b.ReportMetric(rho8, "rho_batch8")
	b.ReportMetric(float64(epochImages)/1, "steps_per_epoch_b1")
	b.ReportMetric(float64(epochImages)/8, "steps_per_epoch_b8")
}

// BenchmarkRevolvePlanner measures the planner itself through the public
// registry: dynamic program plus schedule generation and validation for a
// 152-step chain with 8 slots.
func BenchmarkRevolvePlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched, err := plan.Build("revolve", plan.ChainSpec{Length: 152}, plan.Options{Slots: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := schedule.Run(sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingStoreAll validates the lazily generated store-all stream
// for a long chain, measuring the cost of streaming consumption (the plan is
// never materialized).
func BenchmarkStreamingStoreAll(b *testing.B) {
	const l = 10000
	var tr *schedule.Trace
	for i := 0; i < b.N; i++ {
		sched, err := plan.Build("storeall", plan.ChainSpec{Length: l}, plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tr, err = schedule.Run(sched)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Forwards), "forwards")
	b.ReportMetric(float64(tr.PeakSlots), "peak_slots")
}

// BenchmarkIdleScheduler measures the opportunistic scheduler over a month of
// ten-minute load slices.
func BenchmarkIdleScheduler(b *testing.B) {
	trace := trainer.DielLoadTrace(30, 600, 0.85, 0.15)
	var res trainer.ScheduleResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = trainer.DefaultIdleScheduler.Schedule(trace, 50*3600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ElapsedSeconds/3600, "elapsed_hours")
}

// BenchmarkSyntheticRenderer measures the viewpoint scene generator, the
// substrate for the student-teacher experiments.
func BenchmarkSyntheticRenderer(b *testing.B) {
	rng := tensor.NewRNG(3)
	for i := 0; i < b.N; i++ {
		vision.Sample(rng, vision.Class(i%vision.NumClasses), 0.7, 16)
	}
}

// --- Extensions beyond the paper ------------------------------------------------

// BenchmarkFederatedTraffic places the federated-averaging middle ground next
// to cloud and edge training.
func BenchmarkFederatedTraffic(b *testing.B) {
	var fed edgesim.FederatedResult
	var base []edgesim.Result
	var err error
	for i := 0; i < b.N; i++ {
		fed, base, err = edgesim.SimulateFederated(edgesim.DefaultFederatedConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	var cloud edgesim.Result
	for _, r := range base {
		if r.Strategy == edgesim.StrategyCloudTraining {
			cloud = r
		}
	}
	b.ReportMetric(float64(fed.TotalNetworkBytes())/1e9, "federated_GB")
	b.ReportMetric(float64(cloud.TotalNetworkBytes())/1e9, "cloud_GB")
}

// BenchmarkGradientAccumulation measures micro-batched training (the other
// classic memory-reduction technique) on the small ResNet so it can be
// compared with the checkpointing benchmarks above.
func BenchmarkGradientAccumulation(b *testing.B) {
	cfg := resnet.DefaultSmallConfig()
	net, err := resnet.BuildSmall(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := chain.FromSequential(net)
	rng := tensor.NewRNG(5)
	images := tensor.RandNormal(rng, 0, 1, 8, cfg.InputChannels, 16, 16)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % cfg.NumClasses
	}
	batch := trainer.Batch{Images: images, Labels: labels}
	opt := trainer.NewSGD(0.01)
	var res trainer.AccumulateResult
	for i := 0; i < b.N; i++ {
		res, err = trainer.AccumulateStep(c, batch, 2, opt, chain.Policy{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PeakStates), "peak_states")
	b.ReportMetric(float64(res.MicroBatches), "micro_batches")
}

// BenchmarkFleetRound measures one synchronous all-reduce aggregation round
// across concurrent edge workers (broadcast, parallel local gradients under
// heterogeneous budgets, deterministic fold, optimiser step) at two fleet
// sizes, so the per-round coordination overhead of scaling the fleet out is
// visible next to the single-node step benchmarks above.
func BenchmarkFleetRound(b *testing.B) {
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			model := func() (*chain.Chain, error) {
				cfg := resnet.DefaultSmallConfig()
				cfg.Seed = 1
				net, err := resnet.BuildSmall(cfg)
				if err != nil {
					return nil, err
				}
				return chain.FromSequential(net), nil
			}
			rng := tensor.NewRNG(3)
			var samples []trainer.Batch
			for i := 0; i < 4*workers; i++ {
				c := vision.Class(i % vision.NumClasses)
				samples = append(samples, trainer.Batch{
					Images: vision.Sample(rng, c, 0.5, 16),
					Labels: []int{int(c)},
				})
			}
			specs := make([]fleet.WorkerSpec, workers)
			for i := range specs {
				specs[i] = fleet.WorkerSpec{Device: device.Waggle()}
			}
			f, err := fleet.New(fleet.Config{
				Workers:    specs,
				Rounds:     1,
				Seed:       1,
				Aggregator: fleet.NewGradAllReduce(trainer.NewSGD(0.05)),
			}, model, trainer.NewSliceDataset(samples))
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			var rs fleet.RoundStats
			for i := 0; i < b.N; i++ {
				rs, err = f.Round(i)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.Participants), "participants")
			b.ReportMetric(float64(rs.UplinkBytes+rs.DownlinkBytes)/1e6, "round_MB")
		})
	}
}

// BenchmarkInstrumentedStep measures what the observability layer adds to one
// Revolve-checkpointed training step: "off" runs against the default no-op
// registry (the zero-config contract), "on" with a live registry and tracer
// installed. The relative delta between the two must stay under 2%.
func BenchmarkInstrumentedStep(b *testing.B) {
	step := func(b *testing.B) {
		c, x, lossGrad := buildBenchChain(1)
		sched, err := plan.Build("revolve", plan.ChainSpec{Length: c.Len()}, plan.Options{Slots: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ZeroGrads()
			if _, err := chain.Execute(c, x, lossGrad, sched, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", step)
	b.Run("on", func(b *testing.B) {
		obs.SetDefault(obs.NewRegistry())
		obs.SetDefaultTracer(obs.NewTracer(obs.DefaultTraceEvents))
		defer obs.SetDefault(nil)
		defer obs.SetDefaultTracer(nil)
		step(b)
	})
}
