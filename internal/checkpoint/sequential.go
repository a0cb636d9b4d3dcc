package checkpoint

import "math"

// SequentialMemorySlots returns the number of retained activations of
// PyTorch's checkpoint_sequential for a homogeneous chain of l blocks split
// into s segments, as given in Section V of the paper:
//
//	Memory = s - 1 + (l - floor(l/s) * (s - 1))
//
// i.e. one checkpoint per segment boundary plus full storage of the final
// segment. The unit is "activation slots" (one slot = the activation of one
// block).
func SequentialMemorySlots(l, s int) int {
	if l <= 0 {
		return 0
	}
	if s < 1 {
		s = 1
	}
	if s > l {
		s = l
	}
	return s - 1 + (l - (l/s)*(s-1))
}

// SequentialLowerBound returns 2*sqrt(l), the paper's lower bound on the
// number of activation slots achievable by checkpoint_sequential for any
// choice of the segments parameter s >= 2.
func SequentialLowerBound(l int) float64 {
	if l <= 0 {
		return 0
	}
	return 2 * math.Sqrt(float64(l))
}

// BestSequentialSegments returns the segment count s in [1, l] minimising
// SequentialMemorySlots, together with the minimal slot count. Ties are
// broken towards the smaller s (which also minimises recomputation).
func BestSequentialSegments(l int) (segments, slots int) {
	if l <= 0 {
		return 1, 0
	}
	bestS, bestM := 1, SequentialMemorySlots(l, 1)
	for s := 2; s <= l; s++ {
		if m := SequentialMemorySlots(l, s); m < bestM {
			bestS, bestM = s, m
		}
	}
	return bestS, bestM
}

// SequentialForwards returns the number of advances of checkpoint_sequential
// with s segments on a chain of l blocks, under the package convention that
// the taped forward of each adjoint step is not an advance: the initial sweep
// costs l-1 advances and every segment except the last is re-advanced once
// (floor(l/s)-1 steps each).
func SequentialForwards(l, s int) int64 {
	if l <= 0 {
		return 0
	}
	if s < 1 {
		s = 1
	}
	if s > l {
		s = l
	}
	return int64(l-1) + int64(s-1)*int64(l/s-1)
}

// SequentialRho returns the recompute factor of checkpoint_sequential with s
// segments under the given cost model. s = 1 runs l-1 advances, the schedule
// of storing every state, so it costs Rho(l, l-1) like Revolve with l-1 slots.
func SequentialRho(l, s int, m CostModel) float64 {
	return m.Rho(l, SequentialForwards(l, s))
}

// MinSequentialSlotsForRho returns the minimal SequentialMemorySlots value
// achievable by any segment count whose recompute factor stays at or below
// rho, mirroring MinSlotsForRho for the uniform baseline. The boolean is
// false if no segment count satisfies the budget.
func MinSequentialSlotsForRho(l int, rho float64, m CostModel) (slots int, segments int, ok bool) {
	best := -1
	bestS := 0
	for s := 1; s <= l; s++ {
		if SequentialRho(l, s, m) > rho+1e-12 {
			continue
		}
		mem := SequentialMemorySlots(l, s)
		if best == -1 || mem < best {
			best, bestS = mem, s
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return best, bestS, true
}
