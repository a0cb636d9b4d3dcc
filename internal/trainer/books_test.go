package trainer

import (
	"os"
	"testing"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/obs"
)

// countingLayer counts the forwards that reach the layer it wraps.
type countingLayer struct {
	nn.Layer
	forwards *int
}

func (c countingLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	*c.forwards++
	return c.Layer.Forward(x, train)
}

// TestTrainerLeavesStoreToStep pins that the trainer hands a policy without a
// Store to chain.Step as it is, so Step's one store rule decides. An "auto"
// policy on the default budget resolves to store-all, and every micro-batch
// is plain backpropagation: L stage forwards. A "twolevel" policy still
// spills, through Step's temporary tiered store, and leaves no spill
// directory behind.
func TestTrainerLeavesStoreToStep(t *testing.T) {
	forwards := 0
	c := linearOnlyChain(3)
	for i, s := range c.Stages {
		c.Stages[i] = countingLayer{s, &forwards}
	}
	const n, micro = 6, 2
	res, err := AccumulateStep(c, makeBatch(tensor.NewRNG(4), n), micro, NewSGD(0.1), chain.Policy{Kind: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Len() * n / micro; forwards != want || res.ForwardEvals != want || res.DiskWrites != 0 {
		t.Fatalf("auto, default budget: %d stage forwards (executor counted %d) and %d spills over %d micro-batches, want %d and 0",
			forwards, res.ForwardEvals, res.DiskWrites, res.MicroBatches, want)
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	stats, err := saverTrainer(t, saverPolicies["twolevel"]).TrainFrom(imageDataset(saverSamples), Cursor{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var u chain.Usage
	for _, st := range stats {
		u.Add(st.Usage)
	}
	if u.DiskWrites == 0 || u.DiskReads == 0 {
		t.Fatalf("twolevel without a store did not spill: %+v", u)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("spill directory left behind: %s", e.Name())
	}
}

// TestStepMetricsMatchUsage pins "scraped equals reported" for the step
// books: with a registry installed, the chain counters a TrainFrom run
// publishes equal the Usage summed over the EpochStats it returns, under a
// recomputing policy and a spilling one.
func TestStepMetricsMatchUsage(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("observability enabled at test entry")
	}
	for _, name := range []string{"revolve", "twolevel"} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			obs.SetDefault(reg)
			defer obs.SetDefault(nil)
			stats, err := saverTrainer(t, saverPolicies[name]).TrainFrom(imageDataset(saverSamples), Cursor{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var u chain.Usage
			for _, st := range stats {
				u.Add(st.Usage)
			}
			if u.ForwardEvals == 0 || u.BackwardEvals == 0 || (name == "twolevel") != (u.DiskWrites > 0) {
				t.Fatalf("test setup: %s run cost %+v", name, u)
			}
			for metric, want := range map[string]int{
				"chain_forward_evals_total":  u.ForwardEvals,
				"chain_backward_evals_total": u.BackwardEvals,
				"chain_disk_writes_total":    u.DiskWrites,
				"chain_disk_reads_total":     u.DiskReads,
			} {
				if got := reg.Counter(metric, "").Value(); got != int64(want) {
					t.Errorf("%s = %d, the EpochStats sum to %d", metric, got, want)
				}
			}
		})
	}
}
