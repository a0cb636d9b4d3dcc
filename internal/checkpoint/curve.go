package checkpoint

// ChainSpec is the homogeneous-chain ("LinearResNet") memory description used
// by Section VI: a chain of Length equal steps, a fixed weight-related memory
// cost, and one activation buffer of ActivationBytes per stored state. It is
// also what a schedule is planned for (plan.ChainSpec is this type), where
// the memory fields are optional context and may be left zero.
type ChainSpec struct {
	Name            string // optional label, e.g. "resnet50-b8-i500"
	Length          int    // number of homogeneous steps (the network depth)
	WeightBytes     int64  // memory for weights, gradients and optimiser state
	ActivationBytes int64  // memory of one stored inter-stage state (per batch)
}

// MemoryWithSlots returns the peak training memory when c checkpoint slots
// are used, in the paper's convention (Section V, Figure 1): weights plus the
// chain input plus c stored states. The engine also holds the working state
// beside them; schedule.Trace.PeakStates is its count for a given schedule.
func (cs ChainSpec) MemoryWithSlots(c int) int64 {
	if c < 0 {
		c = 0
	}
	return cs.WeightBytes + int64(c+1)*cs.ActivationBytes
}

// MemoryNoCheckpoint returns the peak training memory of plain
// backpropagation, with every one of the Length per-stage activations stored.
// This is the quantity tabulated in Tables I-III and equals
// MemoryWithSlots(Length-1), the footprint the slot search reports below the
// price of storing every state.
func (cs ChainSpec) MemoryNoCheckpoint() int64 {
	return cs.MemoryWithSlots(cs.Length - 1)
}

// CurvePoint is one point of a Figure 1 series: the recompute factor, the
// minimal checkpoint slots achieving it, the resulting peak memory, and the
// forward-step count of the corresponding optimal schedule.
type CurvePoint struct {
	Rho         float64
	Slots       int
	Forwards    int64
	MemoryBytes int64
	Feasible    bool
}

// MemoryVsRho computes the Figure 1 series for one chain: for every requested
// recompute factor, the minimal peak memory achievable by optimal (Revolve)
// checkpointing whose time-to-solution stays within rho times the
// no-checkpointing baseline.
//
// For rho values below the minimum achievable overhead the point is marked
// infeasible and reports the store-all footprint, which is how "no
// checkpointing" appears at the left edge of the plots.
func MemoryVsRho(cs ChainSpec, rhos []float64, m CostModel) []CurvePoint {
	points := make([]CurvePoint, 0, len(rhos))
	for _, rho := range rhos {
		res := MinSlotsForRho(cs.Length, rho, m)
		mem := cs.MemoryWithSlots(res.Slots)
		if !res.Feasible {
			mem = cs.MemoryNoCheckpoint()
		}
		points = append(points, CurvePoint{
			Rho:         rho,
			Slots:       res.Slots,
			Forwards:    res.Forwards,
			MemoryBytes: mem,
			Feasible:    res.Feasible,
		})
	}
	return points
}

// MinRhoToFit returns the smallest recompute factor at which the chain's peak
// memory fits the given capacity: 1 when plain backpropagation fits, else the
// rho of the largest slot count that fits. ok is false if that rho exceeds
// maxRho or no slot count fits at all.
func MinRhoToFit(cs ChainSpec, capacity int64, m CostModel, maxRho float64) (rho float64, slots int, ok bool) {
	if cs.MemoryWithSlots(0) > capacity {
		return 0, 0, false // weights plus a single buffer alone exceed memory
	}
	if cs.MemoryNoCheckpoint() <= capacity {
		return 1, cs.Length - 1, true
	}
	// The largest slot count that fits determines the minimal rho.
	maxSlots := int((capacity-cs.WeightBytes)/cs.ActivationBytes) - 1
	if maxSlots < 0 {
		return 0, 0, false
	}
	r := m.Rho(cs.Length, MinForwards(cs.Length, maxSlots))
	return r, maxSlots, r <= maxRho
}

// SequentialMemoryVsRho is the uniform-segment (checkpoint_sequential)
// counterpart of MemoryVsRho, used by the ablation benchmarks to compare the
// PyTorch baseline against optimal checkpointing at equal recompute budgets.
func SequentialMemoryVsRho(cs ChainSpec, rhos []float64, m CostModel) []CurvePoint {
	points := make([]CurvePoint, 0, len(rhos))
	for _, rho := range rhos {
		slots, _, ok := MinSequentialSlotsForRho(cs.Length, rho, m)
		mem := cs.MemoryNoCheckpoint()
		if ok {
			mem = cs.MemoryWithSlots(slots)
		}
		points = append(points, CurvePoint{Rho: rho, Slots: slots, MemoryBytes: mem, Feasible: ok})
	}
	return points
}
