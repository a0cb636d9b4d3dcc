//go:build !race

// The race detector's shadow state and pool drops blur the live heap, so this
// file builds only without it.

package trainer

import (
	"runtime"
	"testing"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
)

// liveHeap is the heap the process keeps after a full collection; the second
// runtime.GC empties sync.Pool's victim cache, which outlives one.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEvaluateLeavesNoTapes checks that an evaluation leaves no layer tape
// alive: after Evaluate on the node model (the benchmark's ResNet-34-style
// student, 4 stages of width 8) at 64×64, batch 8, the live heap is within
// 1 MB of the baseline taken before the call. It reads process-wide heap
// statistics, so CI runs it alone.
func TestEvaluateLeavesNoTapes(t *testing.T) {
	net, err := resnet.BuildSmall(resnet.SmallConfig{
		Variant: resnet.ResNet34, InputChannels: 1, NumClasses: 4,
		BaseWidth: 8, Stages: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	var samples []Batch
	for i := 0; i < 8; i++ {
		samples = append(samples, Batch{Images: tensor.RandNormal(rng, 0, 1, 1, 1, 64, 64), Labels: []int{i % 4}})
	}
	c, ds := chain.FromSequential(net), NewSliceDataset(samples)
	base := liveHeap()
	if _, _, err := Evaluate(c, ds, 8); err != nil {
		t.Fatal(err)
	}
	after := liveHeap() - base
	t.Logf("live heap after Evaluate: %.3f MB above the baseline", float64(after)/1e6)
	if after > 1<<20 || after < -1<<20 {
		t.Errorf("Evaluate leaves the live heap %d B off its baseline", after)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(ds)
}
