package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/store"
)

// TestTrainingBitsGolden pins the training arithmetic across commits, where
// every other bit-identity test compares two runs of the same build: sha256
// of all parameters and batch-norm state after three steps of the benchmark's
// node model (ResNet-34 topology, four stages, base width 8, batch 8, 16x16
// frames, Adam 0.01) under the three node policies. One hash for all three:
// checkpointing must not change a bit. The hash was generated at ee939d5, the
// commit before the vector GEMM kernels, and must hold on every build
// (default and -tags purego); a kernel change that moves it has changed the
// order some output element adds its products in.
func TestTrainingBitsGolden(t *testing.T) {
	const golden = "2f1430f05e0655513d1991332d6f37ebd9a867d782a08f067136803e50e267e3"
	set := vision.Dataset(tensor.NewRNG(2), 24, 0.8, 16)
	samples := make([]Batch, len(set.Images))
	for i := range set.Images {
		samples[i] = Batch{Images: set.Images[i], Labels: []int{set.Labels[i]}}
	}
	ds := NewSliceDataset(samples)
	tiered, err := store.NewTiered(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	for _, p := range []chain.Policy{
		{Kind: "storeall"},
		{Kind: "revolve", Slots: 3},
		{Kind: "twolevel", Slots: 2, DiskSlots: 4, Store: tiered},
	} {
		net, err := resnet.BuildSmall(resnet.SmallConfig{
			Variant: resnet.ResNet34, InputChannels: 1, NumClasses: vision.NumClasses,
			BaseWidth: 8, Stages: 4, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := chain.FromSequential(net)
		tr, err := New(c, Config{Epochs: 1, BatchSize: 8, Optimizer: NewAdam(0.01), Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(ds); err != nil {
			t.Fatalf("%s: %v", p.Kind, err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, bits := range trainingBytes(c) {
			binary.LittleEndian.PutUint64(buf[:], bits)
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden {
			t.Errorf("%s: training state sha256 %s, want %s", p.Kind, got, golden)
		}
	}
}
