package fleet

import (
	"testing"
	"time"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
)

// mlpFactory returns a deterministic factory for a 12-stage MLP chain over
// flattened 8x8 images: deep enough that tight budgets auto-select the
// two-level flash-spilling strategy, mid budgets Revolve, large ones
// store-all.
func mlpFactory(seed uint64) func() (*chain.Chain, error) {
	return func() (*chain.Chain, error) {
		rng := tensor.NewRNG(seed)
		return chain.New(
			nn.NewFlatten("flatten"),
			nn.NewLinear("fc1", 64, 32, true, rng),
			nn.NewReLU("relu1"),
			nn.NewLinear("fc2", 32, 32, true, rng),
			nn.NewReLU("relu2"),
			nn.NewLinear("fc3", 32, 32, true, rng),
			nn.NewReLU("relu3"),
			nn.NewLinear("fc4", 32, 32, true, rng),
			nn.NewReLU("relu4"),
			nn.NewLinear("fc5", 32, 16, true, rng),
			nn.NewReLU("relu5"),
			nn.NewLinear("fc6", 16, vision.NumClasses, true, rng),
		), nil
	}
}

// resnetFactory returns a deterministic factory for the 7-stage small ResNet
// (with batch normalisation, so worker batch statistics matter).
func resnetFactory(seed uint64) func() (*chain.Chain, error) {
	return func() (*chain.Chain, error) {
		cfg := resnet.DefaultSmallConfig()
		cfg.Stages = 1
		cfg.NumClasses = vision.NumClasses
		cfg.Seed = seed
		net, err := resnet.BuildSmall(cfg)
		if err != nil {
			return nil, err
		}
		return chain.FromSequential(net), nil
	}
}

// makeDataset builds n labelled 8x8 frames with a viewpoint drift across the
// sample index, so contiguous shards are non-IID.
func makeDataset(n int, seed uint64) *trainer.SliceDataset {
	rng := tensor.NewRNG(seed)
	var samples []trainer.Batch
	for i := 0; i < n; i++ {
		c := vision.Class(i % vision.NumClasses)
		vp := 0.2 + 0.6*float64(i)/float64(max(n-1, 1))
		samples = append(samples, trainer.Batch{
			Images: vision.Sample(rng, c, vp, 8),
			Labels: []int{int(c)},
		})
	}
	return trainer.NewSliceDataset(samples)
}

// budgets computes a worker byte budget as weights + states*activation for
// the given factory and full-shard batch size.
func budgetFor(t *testing.T, factory func() (*chain.Chain, error), shardSamples int, states float64) int64 {
	t.Helper()
	c, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	weight := 2 * nn.ParamBytes(c.Stages)
	act := int64(shardSamples * 64 * 8)
	return weight + int64(states*float64(act))
}

func globalParams(t *testing.T, f *Fleet) []*tensor.Tensor {
	t.Helper()
	var ps []*tensor.Tensor
	for _, p := range f.Global().Params() {
		ps = append(ps, p.Value.Clone())
	}
	return ps
}

func assertSameParams(t *testing.T, a, b []*tensor.Tensor, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d params vs %d", what, len(a), len(b))
	}
	for i := range a {
		ad, bd := a[i].Data(), b[i].Data()
		for j := range ad {
			if ad[j] != bd[j] {
				t.Fatalf("%s: param %d element %d: %v != %v", what, i, j, ad[j], bd[j])
			}
		}
	}
}

// runFleet builds and runs a fleet, returning the report and final params.
func runFleet(t *testing.T, cfg Config, factory func() (*chain.Chain, error), ds trainer.Dataset) (*Report, []*tensor.Tensor) {
	t.Helper()
	f, err := New(cfg, factory, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, globalParams(t, f)
}

func TestFleetHeterogeneousStrategySelection(t *testing.T) {
	factory := mlpFactory(3)
	ds := makeDataset(12, 5)
	cfg := Config{
		Workers: []WorkerSpec{
			{Device: device.JetsonNano(), BudgetBytes: budgetFor(t, factory, 4, 16)},
			{Device: device.Waggle(), BudgetBytes: budgetFor(t, factory, 4, 5.5)},
			{Device: device.RaspberryPi(), BudgetBytes: budgetFor(t, factory, 4, 3.5)},
		},
		Rounds: 1,
		Seed:   1,
	}
	f, err := New(cfg, factory, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := []string{"storeall", "revolve", "twolevel"}
	for i, w := range f.Workers() {
		if w.Choice.Strategy != want[i] {
			t.Errorf("worker %d (%s): auto-selected %q, want %q", i, w.Spec.Name, w.Choice.Strategy, want[i])
		}
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The two-level worker must have really spilled to flash.
	if rep.Workers[2].DiskWrites == 0 || rep.Workers[2].PeakDiskBytes == 0 {
		t.Errorf("twolevel worker reported no flash traffic: %+v", rep.Workers[2])
	}
	// The store-all worker must not have.
	if rep.Workers[0].DiskWrites != 0 {
		t.Errorf("storeall worker spilled: %+v", rep.Workers[0])
	}
}

// TestFleetDeterminism: the trained weights are bit-identical across
// parallel-engine worker counts, across shuffled worker completion orders
// (injected straggler delays), and across repeated runs.
func TestFleetDeterminism(t *testing.T) {
	factory := mlpFactory(7)
	for _, mode := range []string{"fedavg", "allreduce"} {
		t.Run(mode, func(t *testing.T) {
			newCfg := func(delay func(round, worker int) time.Duration) Config {
				agg, err := NewAggregator(mode, trainer.NewSGD(0.05))
				if err != nil {
					t.Fatal(err)
				}
				return Config{
					Workers: []WorkerSpec{
						{Device: device.JetsonNano(), BudgetBytes: budgetFor(t, factory, 4, 16)},
						{Device: device.Waggle(), BudgetBytes: budgetFor(t, factory, 4, 5.5)},
						{Device: device.RaspberryPi(), BudgetBytes: budgetFor(t, factory, 4, 3.5)},
					},
					Rounds:         2,
					LocalEpochs:    2,
					Seed:           11,
					Aggregator:     agg,
					StragglerDelay: delay,
				}
			}
			ds := makeDataset(12, 5)
			_, base := runFleet(t, newCfg(nil), factory, ds)

			// Reverse the completion order: worker 0 finishes last.
			slow := func(round, worker int) time.Duration {
				return time.Duration(2-worker) * 15 * time.Millisecond
			}
			_, shuffled := runFleet(t, newCfg(slow), factory, ds)
			assertSameParams(t, base, shuffled, "shuffled completion order")

			// Different kernel-engine worker counts.
			prev := parallel.SetWorkers(3)
			defer parallel.SetWorkers(prev)
			_, par := runFleet(t, newCfg(nil), factory, ds)
			assertSameParams(t, base, par, "EDGETRAIN_WORKERS=3")
			parallel.SetWorkers(1)
			_, serial := runFleet(t, newCfg(nil), factory, ds)
			assertSameParams(t, base, serial, "EDGETRAIN_WORKERS=1")
		})
	}
}

func TestFleetPartialParticipationAndDropout(t *testing.T) {
	factory := mlpFactory(9)
	ds := makeDataset(16, 6)
	cfg := Config{
		Workers: []WorkerSpec{
			{Device: device.Waggle()}, {Device: device.Waggle()},
			{Device: device.Waggle()}, {Device: device.Waggle()},
		},
		Rounds:        6,
		Seed:          13,
		Participation: 0.5,
		DropoutRate:   0.4,
	}
	rep, first := runFleet(t, cfg, factory, ds)
	for _, rs := range rep.Rounds {
		selected := 0
		for _, ws := range rs.Workers {
			if ws.Participated {
				selected++
			}
			if ws.Dropped && ws.UploadBytes != 0 {
				t.Fatalf("round %d: dropped worker %d uploaded", rs.Round, ws.Worker)
			}
			if ws.Participated && ws.DownloadBytes != rep.ModelBytes {
				t.Fatalf("round %d: participant %d downloaded %d bytes", rs.Round, ws.Worker, ws.DownloadBytes)
			}
		}
		if selected != 2 { // ParticipantsPerRound(4, 0.5)
			t.Fatalf("round %d: %d workers selected, want 2", rs.Round, selected)
		}
		if rs.Participants+rs.Dropouts != selected {
			t.Fatalf("round %d: %d folded + %d dropped != %d selected", rs.Round, rs.Participants, rs.Dropouts, selected)
		}
		if rs.UplinkBytes != int64(rs.Participants)*rep.ModelBytes {
			t.Fatalf("round %d: uplink %d for %d participants", rs.Round, rs.UplinkBytes, rs.Participants)
		}
		if rs.DownlinkBytes != int64(selected)*rep.ModelBytes {
			t.Fatalf("round %d: downlink %d for %d selected", rs.Round, rs.DownlinkBytes, selected)
		}
	}
	// The dropout draws come from the seeded round generators: a second run
	// is bit-identical.
	_, second := runFleet(t, cfg, factory, ds)
	assertSameParams(t, first, second, "repeated run with dropout")
}

func TestFleetEmptyShards(t *testing.T) {
	factory := mlpFactory(15)
	ds := makeDataset(2, 8) // 2 samples across 3 workers: shard 2 is empty
	cfg := Config{
		Workers: []WorkerSpec{
			{Device: device.Waggle()}, {Device: device.Waggle()}, {Device: device.Waggle()},
		},
		Rounds: 2,
		Seed:   3,
	}
	rep, _ := runFleet(t, cfg, factory, ds)
	if rep.Workers[2].Strategy != "idle" {
		t.Fatalf("empty-shard worker strategy %q, want idle", rep.Workers[2].Strategy)
	}
	// An idle worker is never selected: no uploads, no downloads, no rounds.
	if rep.Workers[2].UploadBytes != 0 || rep.Workers[2].DownloadBytes != 0 || rep.Workers[2].Rounds != 0 {
		t.Fatalf("empty-shard worker exchanged traffic: %+v", rep.Workers[2])
	}
	for _, rs := range rep.Rounds {
		if rs.Participants != 2 {
			t.Fatalf("round %d: %d participants, want 2", rs.Round, rs.Participants)
		}
		if rs.DownlinkBytes != 2*rep.ModelBytes {
			t.Fatalf("round %d: downlink %d, want %d", rs.Round, rs.DownlinkBytes, 2*rep.ModelBytes)
		}
	}
}

// TestFedAvgMovesTowardShardModels pins the sample weighting of the FedAvg
// fold directly: with two single-parameter updates of known values and
// sample counts, the folded parameter is their weighted mean.
func TestFedAvgFoldWeighting(t *testing.T) {
	p := nn.NewParam("w", tensor.New(2))
	mk := func(samples int, v0, v1 float64) Update {
		vec := tensor.New(2)
		vec.Set(v0, 0)
		vec.Set(v1, 1)
		return Update{Samples: samples, Vecs: []*tensor.Tensor{vec}}
	}
	agg := NewFedAvg()
	if err := agg.Fold([]*nn.Param{p}, []Update{mk(3, 1, 10), mk(1, 5, 2)}); err != nil {
		t.Fatal(err)
	}
	want0 := 0.75*1 + 0.25*5
	want1 := 0.75*10 + 0.25*2
	if p.Value.At(0) != want0 || p.Value.At(1) != want1 {
		t.Fatalf("folded = (%v, %v), want (%v, %v)", p.Value.At(0), p.Value.At(1), want0, want1)
	}
}

func TestGradAllReduceFoldWeighting(t *testing.T) {
	p := nn.NewParam("w", tensor.New(1))
	p.Value.Set(1, 0)
	mk := func(samples int, g float64) Update {
		vec := tensor.New(1)
		vec.Set(g, 0)
		return Update{Samples: samples, Vecs: []*tensor.Tensor{vec}}
	}
	agg := NewGradAllReduce(trainer.NewSGD(1)) // lr 1: value -= folded gradient
	if err := agg.Fold([]*nn.Param{p}, []Update{mk(3, 2), mk(1, 6)}); err != nil {
		t.Fatal(err)
	}
	// Weighted mean gradient: 0.75*2 + 0.25*6 = 3; value 1 - 3 = -2.
	if got := p.Value.At(0); got != -2 {
		t.Fatalf("value after weighted all-reduce step = %v, want -2", got)
	}
}

func TestNewFleetValidation(t *testing.T) {
	factory := mlpFactory(1)
	ds := makeDataset(4, 1)
	if _, err := New(Config{}, factory, ds); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := New(Config{Workers: []WorkerSpec{{}}, Participation: 1.5}, factory, ds); err == nil {
		t.Error("participation > 1 accepted")
	}
	if _, err := New(Config{Workers: []WorkerSpec{{}}, DropoutRate: 1}, factory, ds); err == nil {
		t.Error("dropout rate 1 accepted")
	}
	// A budget too small for even minimal Revolve must fail at New.
	cfg := Config{Workers: []WorkerSpec{{BudgetBytes: 64}}}
	if _, err := New(cfg, factory, ds); err == nil {
		t.Error("impossible budget accepted")
	}
	// A non-deterministic factory must be rejected.
	calls := uint64(0)
	bad := func() (*chain.Chain, error) {
		calls++
		return mlpFactory(calls)()
	}
	if _, err := New(Config{Workers: []WorkerSpec{{}}}, bad, ds); err == nil {
		t.Error("non-deterministic model factory accepted")
	}
}

// countingLayer counts the forwards that reach the layer it wraps.
type countingLayer struct {
	nn.Layer
	forwards *int
}

func (c countingLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	*c.forwards++
	return c.Layer.Forward(x, train)
}

// TestWorkerExecutesItsChoice pins that a worker runs the strategy its budget
// selected, resolved once: on a Waggle-class 2 GB budget the choice is
// store-all and a step is plain backpropagation — exactly L stage forwards,
// no spill store — where it used to re-derive the choice every step and run
// the store-all schedule through the recomputing executor (2L-1 forwards).
// The same model on a tight budget still picks twolevel and really spills.
func TestWorkerExecutesItsChoice(t *testing.T) {
	forwards := 0
	base := mlpFactory(21)
	factory := func() (*chain.Chain, error) {
		c, err := base()
		if err != nil {
			return nil, err
		}
		for i, s := range c.Stages {
			c.Stages[i] = countingLayer{s, &forwards}
		}
		return c, nil
	}
	ds := makeDataset(4, 9)
	agg, err := NewAggregator("allreduce", trainer.NewSGD(0.05))
	if err != nil {
		t.Fatal(err)
	}
	step := func(spec WorkerSpec) (*Worker, Update) {
		w, err := NewWorker(spec, 0, 1, factory, ds, 0, 1, trainer.NewSGD(0.05))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		forwards = 0
		u, err := agg.Local(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w, u
	}

	roomy, u := step(WorkerSpec{Device: device.Waggle()})
	l := roomy.Chain.Len()
	if roomy.Choice.Strategy != "storeall" || roomy.Policy().Store != nil {
		t.Fatalf("2 GB budget: choice %q, store %v; want storeall without a spill store", roomy.Choice.Strategy, roomy.Policy().Store)
	}
	if forwards != l || u.DiskWrites != 0 {
		t.Fatalf("2 GB budget: %d stage forwards and %d spills in one step, want %d and 0", forwards, u.DiskWrites, l)
	}

	tight, u := step(WorkerSpec{Device: device.RaspberryPi(), BudgetBytes: budgetFor(t, base, 4, 3.5)})
	if tight.Choice.Strategy != "twolevel" || tight.Policy().Store == nil {
		t.Fatalf("tight budget: choice %q, store %v; want twolevel with a spill store", tight.Choice.Strategy, tight.Policy().Store)
	}
	if u.DiskWrites != tight.Choice.DiskSlots || forwards <= l {
		t.Fatalf("tight budget: %d spills (plan has %d flash slots), %d forwards for %d stages",
			u.DiskWrites, tight.Choice.DiskSlots, forwards, l)
	}
}
