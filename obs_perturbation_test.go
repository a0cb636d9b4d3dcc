package edgetrain

// TestObservabilityNoPerturbation pins the observability layer's core
// contract: instrumentation records what training did but never changes
// what training does. The same seeded run with metrics and tracing fully
// enabled must produce global weights byte-identical to a run with
// observability disabled — for the in-process fleet and for the
// distributed coordinator alike.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/edgeml/edgetrain/coord"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/fleetdemo"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
)

const (
	obsWorkers = 3
	obsRounds  = 2
	obsSamples = 18
	obsSeed    = uint64(7)
)

// withObservability installs a fresh default registry and tracer, runs fn,
// and restores the disabled defaults. It returns the registry for
// assertions on what was collected.
func withObservability(t *testing.T, fn func()) *obs.Registry {
	t.Helper()
	r := obs.NewRegistry()
	obs.SetDefault(r)
	obs.SetDefaultTracer(obs.NewTracer(0))
	defer obs.SetDefault(nil)
	defer obs.SetDefaultTracer(nil)
	fn()
	return r
}

// flattenParams clones every parameter tensor of the chain.
func flattenParams(c *chain.Chain) []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, p := range c.Params() {
		ps = append(ps, p.Value.Clone())
	}
	return ps
}

func assertParamsBitEqual(t *testing.T, a, b []*tensor.Tensor, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d params vs %d", what, len(a), len(b))
	}
	for i := range a {
		ad, bd := a[i].Data(), b[i].Data()
		if len(ad) != len(bd) {
			t.Fatalf("%s: param %d size %d vs %d", what, i, len(ad), len(bd))
		}
		for j := range ad {
			if math.Float64bits(ad[j]) != math.Float64bits(bd[j]) {
				t.Fatalf("%s: param %d element %d: %v != %v (obs perturbation)",
					what, i, j, ad[j], bd[j])
			}
		}
	}
}

// counterValue reads one counter's value out of a snapshot (0 if absent).
func counterValue(r *obs.Registry, name string) float64 {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func runObsFleet(t *testing.T) []*tensor.Tensor {
	t.Helper()
	specs := make([]fleet.WorkerSpec, obsWorkers)
	f, err := fleet.New(fleet.Config{
		Workers: specs,
		Rounds:  obsRounds,
		Seed:    obsSeed,
	}, fleetdemo.Model(obsSeed), fleetdemo.Dataset(obsWorkers, obsSamples, obsSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	return flattenParams(f.Global())
}

func runObsCoord(t *testing.T) []*tensor.Tensor {
	t.Helper()
	c, err := coord.New(coord.Config{
		Workers:    obsWorkers,
		Rounds:     obsRounds,
		Samples:    obsSamples,
		Seed:       obsSeed,
		Aggregator: "fedavg",
		Optimizer:  "sgd",
		LR:         0.05,
	}, fleetdemo.Model(obsSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := coord.NewLoopback()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, obsWorkers)
	for i := 0; i < obsWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = coord.RunWorker(tr, addr, coord.WorkerOptions{
				Spec: fleet.WorkerSpec{Name: fmt.Sprintf("w%d", i)},
				Model: func(a coord.Assignment) (*chain.Chain, error) {
					return fleetdemo.Model(a.Seed)()
				},
				Dataset: func(a coord.Assignment) (trainer.Dataset, error) {
					return fleetdemo.Dataset(a.Workers, a.Samples, a.Seed), nil
				},
			})
		}(i)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return flattenParams(c.Global())
}

func TestObservabilityNoPerturbation(t *testing.T) {
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		t.Fatal("observability enabled at test entry")
	}

	// In-process fleet: disabled vs enabled.
	plain := runObsFleet(t)
	var instrumented []*tensor.Tensor
	reg := withObservability(t, func() { instrumented = runObsFleet(t) })
	assertParamsBitEqual(t, plain, instrumented, "fleet.Run")
	// Guard against a vacuous pass: the enabled run must have collected.
	if got := counterValue(reg, "chain_steps_total"); got == 0 {
		t.Fatal("instrumented fleet run recorded no chain steps")
	}
	if got := counterValue(reg, "fleet_rounds_committed_total"); got != obsRounds {
		t.Fatalf("fleet_rounds_committed_total = %g, want %d", got, obsRounds)
	}

	// Distributed coordinator over the loopback transport.
	plainCoord := runObsCoord(t)
	assertParamsBitEqual(t, plain, plainCoord, "coord vs fleet baseline")
	var instrumentedCoord []*tensor.Tensor
	reg = withObservability(t, func() { instrumentedCoord = runObsCoord(t) })
	assertParamsBitEqual(t, plainCoord, instrumentedCoord, "coord loopback")
	if got := counterValue(reg, "coord_rounds_committed_total"); got != obsRounds {
		t.Fatalf("coord_rounds_committed_total = %g, want %d", got, obsRounds)
	}
	if got := counterValue(reg, "coord_workers_joined_total"); got != obsWorkers {
		t.Fatalf("coord_workers_joined_total = %g, want %d", got, obsWorkers)
	}
	// The instrumented run exercised the full telemetry shipping path —
	// workers collected delta shipments and the coordinator ingested them —
	// and the weights above still came out bit-identical. Guard against a
	// vacuous pass here too.
	if got := counterValue(reg, "coord_telemetry_frames_total"); got == 0 {
		t.Fatal("instrumented coord run shipped no telemetry frames")
	}
}
