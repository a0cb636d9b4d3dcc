package checkpoint

import (
	"testing"
	"testing/quick"

	"github.com/edgeml/edgetrain/schedule"
)

// testChain is a LinearResNet-152-like chain at batch 8, image 500: roughly
// 0.9 GB of weight state and 134 MB per stored activation.
func testChain() ChainSpec {
	return ChainSpec{
		Name:            "linear-resnet152-b8-500",
		Length:          152,
		WeightBytes:     913 << 20,
		ActivationBytes: 134 << 20,
	}
}

func TestChainSpecMemory(t *testing.T) {
	cs := ChainSpec{Length: 10, WeightBytes: 1000, ActivationBytes: 10}
	if cs.MemoryWithSlots(0) != 1010 {
		t.Fatalf("MemoryWithSlots(0) = %d, want 1010", cs.MemoryWithSlots(0))
	}
	if cs.MemoryWithSlots(-3) != cs.MemoryWithSlots(0) {
		t.Fatal("negative slots should clamp to zero")
	}
	if cs.MemoryNoCheckpoint() != 1000+10*10 {
		t.Fatalf("MemoryNoCheckpoint = %d, want 1100", cs.MemoryNoCheckpoint())
	}
	// Plain backpropagation fits exactly its no-checkpoint footprint.
	if r, _, ok := MinRhoToFit(cs, cs.MemoryNoCheckpoint(), DefaultCostModel, 10); !ok || r != 1 {
		t.Fatalf("capacity = MemoryNoCheckpoint: rho %v ok %v, want 1 true", r, ok)
	}
	if r, _, _ := MinRhoToFit(cs, cs.MemoryNoCheckpoint()-1, DefaultCostModel, 10); r <= 1 {
		t.Fatalf("one byte under MemoryNoCheckpoint fits at rho %v, want above 1", r)
	}
}

func TestMemoryVsRhoMonotone(t *testing.T) {
	cs := testChain()
	rhos := []float64{1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0}
	pts := MemoryVsRho(cs, rhos, DefaultCostModel)
	if len(pts) != len(rhos) {
		t.Fatalf("expected %d points, got %d", len(rhos), len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MemoryBytes > pts[i-1].MemoryBytes {
			t.Fatalf("memory must not increase with rho: %d at rho=%v after %d at rho=%v",
				pts[i].MemoryBytes, pts[i].Rho, pts[i-1].MemoryBytes, pts[i-1].Rho)
		}
	}
	// At rho=1 the footprint is essentially the no-checkpoint tables entry
	// (the budget of l forwards allows shaving at most a couple of slots).
	if pts[0].MemoryBytes > cs.MemoryNoCheckpoint() {
		t.Fatalf("rho=1 memory %d exceeds the store-all footprint %d", pts[0].MemoryBytes, cs.MemoryNoCheckpoint())
	}
	if float64(pts[0].MemoryBytes) < 0.95*float64(cs.MemoryNoCheckpoint()) {
		t.Fatalf("rho=1 memory %d is far below the store-all footprint %d", pts[0].MemoryBytes, cs.MemoryNoCheckpoint())
	}
	// By rho=3 the footprint should have collapsed by an order of magnitude.
	last := pts[len(pts)-1]
	if last.MemoryBytes*5 > cs.MemoryNoCheckpoint() {
		t.Fatalf("rho=3 memory %d did not drop enough vs %d", last.MemoryBytes, cs.MemoryNoCheckpoint())
	}
}

func TestMemoryVsRhoReproducesSectionVIClaim(t *testing.T) {
	// Section VI: without checkpointing, at batch 8 / image 500 not even
	// ResNet-18 fits in 2 GB, but a recompute factor between roughly 1.5 and
	// 2.5 brings every model under the limit.
	twoGB := int64(2) << 30
	cs := testChain()
	if cs.MemoryNoCheckpoint() <= twoGB {
		t.Fatal("test chain should not fit without checkpointing")
	}
	rho, slots, ok := MinRhoToFit(cs, twoGB, DefaultCostModel, 4)
	if !ok {
		t.Fatal("the chain should fit within a recompute factor of 4")
	}
	if rho < 1.2 || rho > 3.0 {
		t.Fatalf("expected the fitting recompute factor in [1.2, 3.0], got %v (slots=%d)", rho, slots)
	}
}

func TestMinRhoToFitAlreadyFits(t *testing.T) {
	cs := ChainSpec{Length: 18, WeightBytes: 100 << 20, ActivationBytes: 1 << 20}
	rho, _, ok := MinRhoToFit(cs, 2<<30, DefaultCostModel, 4)
	if !ok || rho != 1 {
		t.Fatalf("small chain should fit at rho=1, got rho=%v ok=%v", rho, ok)
	}
}

func TestMinRhoToFitImpossible(t *testing.T) {
	cs := ChainSpec{Length: 18, WeightBytes: 3 << 30, ActivationBytes: 1 << 20}
	if _, _, ok := MinRhoToFit(cs, 2<<30, DefaultCostModel, 10); ok {
		t.Fatal("weights larger than the device cannot fit at any rho")
	}
}

func TestSequentialMemoryVsRhoDominatedByRevolve(t *testing.T) {
	cs := testChain()
	rhos := []float64{1.3, 1.6, 2.0, 2.5}
	rev := MemoryVsRho(cs, rhos, DefaultCostModel)
	seq := SequentialMemoryVsRho(cs, rhos, DefaultCostModel)
	for i := range rhos {
		if !seq[i].Feasible {
			continue
		}
		if rev[i].MemoryBytes > seq[i].MemoryBytes {
			t.Fatalf("rho=%v: revolve memory %d exceeds sequential %d", rhos[i], rev[i].MemoryBytes, seq[i].MemoryBytes)
		}
	}
}

func TestPeakBytesForSchedule(t *testing.T) {
	sched, err := PlanRevolve(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	uniform := make([]int64, 11)
	for i := range uniform {
		uniform[i] = 100
	}
	peak, err := schedule.PeakBytes(sched, uniform)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrace(t, sched)
	// Uniform sizes: peak bytes = (peak slots + input + working state) * 100,
	// which is the trace's peak states.
	if peak != int64(tr.PeakSlots+2)*100 || peak != int64(tr.PeakStates)*100 {
		t.Fatalf("uniform peak %d, want %d (%d peak states)", peak, int64(tr.PeakSlots+2)*100, tr.PeakStates)
	}

	// Heterogeneous: early activations are large (high-resolution feature
	// maps), later ones small; the peak must be at least the input size and
	// at most the sum of all states.
	hetero := make([]int64, 11)
	var total int64
	for i := range hetero {
		hetero[i] = int64(1000 - 90*i)
		total += hetero[i]
	}
	peakH, err := schedule.PeakBytes(sched, hetero)
	if err != nil {
		t.Fatal(err)
	}
	if peakH < hetero[0] || peakH > total {
		t.Fatalf("heterogeneous peak %d outside [%d, %d]", peakH, hetero[0], total)
	}

	if _, err := schedule.PeakBytes(sched, uniform[:5]); err == nil {
		t.Fatal("wrong state-size count should be rejected")
	}
}

// Property: every curve is non-increasing in memory and the slot counts
// respect the forward budget implied by rho.
func TestMemoryVsRhoProperty(t *testing.T) {
	f := func(lRaw uint8, wRaw, aRaw uint16) bool {
		l := int(lRaw%150) + 2
		cs := ChainSpec{
			Length:          l,
			WeightBytes:     int64(wRaw)*1000 + 1,
			ActivationBytes: int64(aRaw)*100 + 1,
		}
		rhos := []float64{1, 1.5, 2, 2.5, 3}
		pts := MemoryVsRho(cs, rhos, DefaultCostModel)
		prev := pts[0].MemoryBytes
		for _, p := range pts[1:] {
			if p.MemoryBytes > prev {
				return false
			}
			prev = p.MemoryBytes
		}
		return pts[0].MemoryBytes <= cs.MemoryNoCheckpoint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
