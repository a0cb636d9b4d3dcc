package edgetrain

// Cross-module integration tests: each test exercises a full pipeline from
// the architecture specs through the memory model, the checkpoint planner and
// the executor, mirroring how the command-line tools compose the packages.

import (
	"slices"
	"testing"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/edgesim"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
)

// TestTablesToFigurePipeline checks that the quantities flowing from the
// ResNet specs into Tables I-III and then into the Figure 1 chains stay
// mutually consistent.
func TestTablesToFigurePipeline(t *testing.T) {
	acc := memmodel.DefaultAccounting
	t3, err := memmodel.Table3(acc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resnet.Variants {
		cell, err := t3.Lookup(500, v)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := memmodel.LinearChain(v, 500, memmodel.Table3BatchSize, acc)
		if err != nil {
			t.Fatal(err)
		}
		// The LinearResNet's store-all footprint must equal the table cell up
		// to the rounding of the per-stage division.
		diff := cell.Footprint.TotalBytes() - lin.MemoryNoCheckpoint()
		if diff < 0 {
			diff = -diff
		}
		if diff > int64(lin.Length) {
			t.Fatalf("%s: table footprint %d and chain footprint %d disagree", v, cell.Footprint.TotalBytes(), lin.MemoryNoCheckpoint())
		}
		// And the chain must become trainable on the Waggle node within the
		// recompute factors the figure sweeps.
		if _, _, ok := checkpoint.MinRhoToFit(lin, device.Waggle().MemoryBytes, checkpoint.DefaultCostModel, 3); !ok {
			t.Fatalf("%s at batch 8 / image 500 never fits within rho=3", v)
		}
	}
}

// TestDeviceFitMatchesTableShading cross-checks the device model against the
// table generator for every cell of Table I.
func TestDeviceFitMatchesTableShading(t *testing.T) {
	tbl, err := memmodel.Table1(memmodel.DefaultAccounting)
	if err != nil {
		t.Fatal(err)
	}
	node := device.Waggle()
	for i, row := range tbl.Rows {
		for j, v := range tbl.Columns {
			cell := tbl.Cells[i][j]
			if node.Fits(cell.Footprint) != cell.Fits {
				t.Fatalf("device.Fits and table shading disagree for %s at batch %d", v, row)
			}
		}
	}
}

// TestEndToEndCheckpointedTrainingOnWaggleBudget trains the small student
// network under a slot budget derived from the analytical model and verifies
// that the measured peak matches what the planner promised.
func TestEndToEndCheckpointedTrainingOnWaggleBudget(t *testing.T) {
	cfg := resnet.DefaultSmallConfig()
	net, err := resnet.BuildSmall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := chain.FromSequential(net)

	// Ask the planner for the slot count that keeps rho below 1.5.
	res := checkpoint.MinSlotsForRho(c.Len(), 1.5, checkpoint.DefaultCostModel)
	if !res.Feasible {
		t.Fatal("rho=1.5 should be feasible for the small chain")
	}
	rng := tensor.NewRNG(3)
	set := vision.Dataset(rng, 24, 0.6, 16)
	var samples []trainer.Batch
	for i := range set.Images {
		samples = append(samples, trainer.Batch{Images: set.Images[i], Labels: []int{set.Labels[i]}})
	}
	tr, err := trainer.New(c, trainer.Config{
		Epochs:    1,
		BatchSize: 8,
		Optimizer: trainer.NewSGD(0.05),
		Policy:    chain.Policy{Kind: "revolve", Slots: res.Slots},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(trainer.NewSliceDataset(samples))
	if err != nil {
		t.Fatal(err)
	}
	_, planned, err := plan.Validate("revolve", plan.ChainSpec{Length: c.Len()}, plan.Options{Slots: res.Slots})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].PeakStates != planned.PeakStates {
		t.Fatalf("measured peak states %d, the plan for %d slots holds %d", stats[0].PeakStates, res.Slots, planned.PeakStates)
	}
	if stats[0].Steps == 0 {
		t.Fatal("training performed no steps")
	}
}

// TestModelShipmentSizeConsistency ties the nn serialisation to the fleet
// simulation's model-transfer accounting: the student model produced by the
// teacher pipeline's classifier is far smaller than the raw images a single
// day of cloud training would upload.
func TestModelShipmentSizeConsistency(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := nn.NewSequential("student",
		nn.NewConv2D("c1", 1, 8, 3, 1, 1, true, rng),
		nn.NewReLU("r1"),
		nn.NewGlobalAvgPool2D("gap"),
		nn.NewLinear("fc", 8, vision.NumClasses, true, rng),
	)
	modelBytes := nn.ParamBytes(net.Layers)
	nodeCfg := edgesim.DefaultNodeConfig()
	oneDayUpload := int64(nodeCfg.DetectionsPerDay) * int64(nodeCfg.TrackLength) * nodeCfg.ImageBytes
	if modelBytes >= oneDayUpload {
		t.Fatalf("the student model (%d bytes) should be smaller than one day of raw uploads (%d bytes)", modelBytes, oneDayUpload)
	}
}

// TestVersionIsSet guards the version checkpoints are stamped with.
func TestVersionIsSet(t *testing.T) {
	if ckpt.LibraryVersion == "" {
		t.Fatal("ckpt.LibraryVersion must be set")
	}
}

// TestRootAPIPlansEveryStrategy drives the public planning surface the way
// an external caller would: enumerate the strategies, plan each by name, and
// validate the schedule through the trace simulator.
func TestRootAPIPlansEveryStrategy(t *testing.T) {
	names := plan.Strategies()
	if want := []string{"auto", "revolve", "sequential", "storeall", "twolevel"}; !slices.Equal(names, want) {
		t.Fatalf("strategies %v, want exactly %v", names, want)
	}
	spec := plan.ChainSpec{Length: 24}
	opts := map[string]plan.Options{
		"revolve":    {Slots: 3},
		"sequential": {Segments: 4},
		"twolevel":   {Slots: 2, DiskSlots: 3},
	}
	for _, name := range names {
		sched, err := plan.Build(name, spec, opts[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := schedule.Run(sched)
		if err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		if len(tr.BackpropOrder) != spec.Length {
			t.Fatalf("%s: %d adjoints performed, want %d", name, len(tr.BackpropOrder), spec.Length)
		}
	}
	if _, err := plan.Build("no-such-strategy", spec, plan.Options{}); err == nil {
		t.Fatal("building an unknown strategy must fail")
	}
}

// TestRootAPIExecutesRegistrySchedule runs a schedule planned by name on a
// real network through the chain executor and cross-checks the executor's
// forward count against the schedule trace — the full public path from
// strategy name to gradients.
func TestRootAPIExecutesRegistrySchedule(t *testing.T) {
	cfg := resnet.DefaultSmallConfig()
	net, err := resnet.BuildSmall(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := chain.FromSequential(net)
	sched, err := plan.Build("revolve", plan.ChainSpec{Length: c.Len()}, plan.Options{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := schedule.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(11)
	x := tensor.RandNormal(rng, 0, 1, 2, cfg.InputChannels, 16, 16)
	labels := []int{1, 2}
	lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
		ce := nn.NewSoftmaxCrossEntropy()
		ce.Forward(out, labels)
		return ce.Backward()
	}
	res, err := chain.Execute(c, x, lossGrad, sched, true)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.ForwardEvals) != tr.Forwards {
		t.Fatalf("executor ran %d forwards, trace says %d", res.ForwardEvals, tr.Forwards)
	}
	if res.PeakStates != tr.PeakStates {
		t.Fatalf("executor retained %d states, trace says %d", res.PeakStates, tr.PeakStates)
	}
}
