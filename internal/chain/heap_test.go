package chain

import (
	"runtime"
	"testing"

	"github.com/edgeml/edgetrain/internal/tensor"
)

// liveHeap is the heap the process keeps after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestLiveHeapFollowsPolicy checks that the checkpointing policy decides
// what a real network keeps alive: on the node model at 64×64, batch 8, the
// live heap at the loss callback, above a baseline taken before the first
// step, falls strictly from store-all through revolve with 8, 5, 3 and 2
// slots, stays within each revolve step's PeakStateBytes, and a step leaves
// the heap within 1 MB of the baseline. It reads process-wide heap
// statistics, so CI runs it alone.
func TestLiveHeapFollowsPolicy(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state and pool drops blur the live heap")
	}
	c, x, lossGrad := nodeModel(t, 64)
	base := liveHeap()
	var atLoss int64
	probe := func(out *tensor.Tensor) *tensor.Tensor {
		atLoss = liveHeap() - base
		return lossGrad(out)
	}
	prev := int64(-1)
	for _, pol := range []Policy{{Kind: "storeall"}, {Kind: "revolve", Slots: 8}, {Kind: "revolve", Slots: 5},
		{Kind: "revolve", Slots: 3}, {Kind: "revolve", Slots: 2}} {
		c.ZeroGrads()
		res, err := Step(c, x, probe, pol, true)
		if err != nil {
			t.Fatal(err)
		}
		after := liveHeap() - base
		t.Logf("%s(%d): live heap at the loss %.2f MB, after the step %.3f MB, PeakStateBytes %.2f MB",
			pol.strategyName(), pol.Slots, float64(atLoss)/1e6, float64(after)/1e6, float64(res.PeakStateBytes)/1e6)
		if prev >= 0 && atLoss >= prev {
			t.Errorf("%s(%d): live heap at the loss %d B, not below the previous policy's %d B", pol.strategyName(), pol.Slots, atLoss, prev)
		}
		if pol.Kind == "revolve" && atLoss > res.PeakStateBytes {
			t.Errorf("revolve(%d): live heap at the loss %d B above the step's PeakStateBytes %d", pol.Slots, atLoss, res.PeakStateBytes)
		}
		if after > 1<<20 || after < -1<<20 {
			t.Errorf("%s(%d): the step leaves the live heap %d B off its baseline", pol.strategyName(), pol.Slots, after)
		}
		prev = atLoss
	}
}
