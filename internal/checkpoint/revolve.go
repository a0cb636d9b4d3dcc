// Package checkpoint implements the paper's core contribution: optimal
// (binomial / Revolve-style) checkpointing for the backward pass of a
// sequential chain, the uniform checkpoint_sequential baseline used by
// PyTorch, and the recompute-factor (rho) budgeted search that Section VI of
// "Training on the Edge" uses to trade memory for recomputation. The planners
// emit schedule.Schedule, the public package's one schedule type, directly;
// callers outside internal/ reach them by name through package plan.
//
// # Conventions
//
// A chain has L steps F_1..F_L mapping state x_0 to x_L. Reversing the chain
// (backpropagation) processes adjoint steps L, L-1, ..., 1; the adjoint of
// step i requires its input state x_{i-1} to be available in memory.
//
// Checkpoint slots hold intermediate states x_i. The input x_0 is always
// retained and does not count against the slot budget (this matches training,
// where the input batch is present anyway). A schedule may re-run ("advance")
// forward steps from a stored state to rebuild states that were discarded.
//
// The cost of a schedule is counted in forward-step executions performed by
// Advance actions. Every adjoint step also runs its stage's forward once more,
// to tape it for the backward; CostModel prices that taped forward inside the
// adjoint, so the l adjoint steps cost (1+BackwardRatio)·l whatever the
// schedule, and the advances on top of them are the recompute overhead.
package checkpoint

import (
	"fmt"
	"sync"
)

// Infinity is the sentinel cost for infeasible configurations.
const Infinity = int64(1) << 60

// dpCache memoises the dynamic-programming table across calls. The table is
// indexed [slots][length] and grows monotonically; it is guarded by a mutex
// so planners can be used from concurrent benchmarks.
var dpCache struct {
	sync.Mutex
	maxL, maxC int
	table      [][]int64 // [slots][length]
	argmin     [][]int   // optimal first-checkpoint position, 0 if none
}

// ensureDP grows the cached DP table to cover chains up to length l with up
// to c slots and returns the table and argmin matrices. Callers must hold no
// reference across subsequent calls (the slices may be reallocated).
func ensureDP(l, c int) ([][]int64, [][]int) {
	dpCache.Lock()
	defer dpCache.Unlock()
	if l <= dpCache.maxL && c <= dpCache.maxC {
		return dpCache.table, dpCache.argmin
	}
	newL := max(l, dpCache.maxL)
	newC := max(c, dpCache.maxC)
	table := make([][]int64, newC+1)
	argmin := make([][]int, newC+1)
	for s := 0; s <= newC; s++ {
		table[s] = make([]int64, newL+1)
		argmin[s] = make([]int, newL+1)
	}
	// Base cases: length 0 and 1 cost nothing; zero slots forces re-advancing
	// from x_0 before every adjoint step.
	for length := 2; length <= newL; length++ {
		table[0][length] = int64(length) * int64(length-1) / 2
	}
	for s := 1; s <= newC; s++ {
		for length := 2; length <= newL; length++ {
			best := table[s-1][length] // option: leave the extra slot unused
			bestJ := argmin[s-1][length]
			for j := 1; j < length; j++ {
				cost := int64(j) + table[s-1][length-j] + table[s][j]
				if cost < best {
					best, bestJ = cost, j
				}
			}
			table[s][length] = best
			argmin[s][length] = bestJ
		}
	}
	dpCache.maxL, dpCache.maxC = newL, newC
	dpCache.table, dpCache.argmin = table, argmin
	return table, argmin
}

// MinForwards returns the minimal total number of forward-step executions
// (Advance work) needed to reverse a chain of l steps using at most c
// checkpoint slots, excluding the always-available input state x_0.
//
// Special cases: a chain of length 0 or 1 needs no advances; with zero slots
// the only strategy is to re-advance from x_0 for every adjoint step, which
// costs l*(l-1)/2. MinForwards is non-increasing in c and reaches its floor
// of l-1 at c = l-1 (every intermediate state stored during one sweep).
func MinForwards(l, c int) int64 {
	switch {
	case l < 0 || c < 0:
		return Infinity
	case l <= 1:
		return 0
	case c == 0:
		return int64(l) * int64(l-1) / 2
	}
	if c > l-1 {
		c = l - 1 // extra slots beyond l-1 cannot help
	}
	table, _ := ensureDP(l, c)
	return table[c][l]
}

// OptimalFirstCheckpoint returns the position j (1 <= j < l) at which an
// optimal schedule for (l, c) places its first checkpoint, or 0 if the
// optimal schedule for this configuration stores nothing (l <= 1, or the
// extra slot is useless).
func OptimalFirstCheckpoint(l, c int) int {
	if l <= 1 || c <= 0 {
		return 0
	}
	if c > l-1 {
		c = l - 1
	}
	_, argmin := ensureDP(l, c)
	return argmin[c][l]
}

// Beta returns C(c+r, c): the classical binomial bound on the longest chain
// reversible with c checkpoint slots while re-executing no forward step more
// than r times (Griewank & Walther, Algorithm 799). It is exposed for
// analysis and cross-checking; results are clamped to Infinity.
func Beta(c, r int) int64 {
	if c < 0 || r < 0 {
		return 0
	}
	k := c
	if r < k {
		k = r
	}
	n := c + r
	res := int64(1)
	for i := 1; i <= k; i++ {
		res = res * int64(n-k+i) / int64(i)
		if res > Infinity {
			return Infinity
		}
	}
	return res
}

// Repetition returns the binomial repetition number: the smallest r such that
// a chain of l steps can be reversed with c slots while executing no forward
// step more than r+1 times in total. It is 0 for chains of length <= 1.
func Repetition(l, c int) int {
	if l <= 1 {
		return 0
	}
	if c <= 0 {
		return l - 1
	}
	r := 1
	for Beta(c, r) < int64(l) {
		r++
	}
	return r
}

// MinSlotsForForwards returns the smallest checkpoint-slot count c such that
// MinForwards(l, c) <= budget. MinForwards is non-increasing in c, so a
// binary search applies. The second return value is MinForwards(l, c) for the
// returned c. If even c = l-1 (store everything) exceeds the budget, ok is
// false and the returned slots is l-1.
func MinSlotsForForwards(l int, budget int64) (slots int, forwards int64, ok bool) {
	if l <= 1 {
		return 0, 0, true
	}
	lo, hi := 0, l-1
	if f := MinForwards(l, hi); f > budget {
		return hi, f, false
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if MinForwards(l, mid) <= budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, MinForwards(l, lo), true
}

// ValidateArgs checks chain length and slot count arguments shared by the
// planners, returning a descriptive error for invalid input.
func ValidateArgs(l, c int) error {
	if l < 0 {
		return fmt.Errorf("checkpoint: negative chain length %d", l)
	}
	if c < 0 {
		return fmt.Errorf("checkpoint: negative slot count %d", c)
	}
	return nil
}
