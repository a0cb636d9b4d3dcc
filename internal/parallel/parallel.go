// Package parallel provides the deterministic fork-join range partitioner
// that underlies the compute kernels in internal/tensor and internal/nn.
//
// The central design constraint is bit-identical results at any worker
// count: chunk boundaries are a pure function of the range length and the
// grain, never of the number of workers. Workers only pick up pre-cut
// chunks, so any reduction that (a) computes per-chunk partials and
// (b) folds them in chunk order produces exactly the same floating-point
// rounding as a serial run. Kernels that write disjoint output ranges are
// deterministic for free.
//
// The worker count defaults to GOMAXPROCS and can be pinned with the
// EDGETRAIN_WORKERS environment variable (read once at start-up) or
// programmatically with SetWorkers. A worker count of 1, a range small
// enough to fit one chunk, or a process with one processor (GOMAXPROCS 1)
// runs inline with no goroutines at all, so small tensors never pay dispatch
// overhead.
//
// Everything else runs on one resident team. A training step is some three
// hundred regions of about a hundred microseconds each, 32 µs apart, and on
// the 2-vCPU reference box waking a sleeping thread takes about 40 µs: a
// fresh set of goroutines per region, with the caller asleep until the last
// of them is done, bought 1.07 x from the second core. So:
//
//   - The team: the caller of ForChunks publishes its region and takes
//     chunks from it itself; up to Workers()-1 helper goroutines take chunks
//     from the same counter when they find the region while chunks are left.
//   - The join rule: the caller returns when every chunk that was handed out
//     has finished. It waits for chunks in flight, never for a helper that
//     has not arrived: a late helper finds the counter exhausted and costs
//     nothing.
//   - The inline rule: the team serves one region at a time. A caller that
//     finds it taken — a second goroutine training in the same process, a
//     connection handler decoding checkpoint frames, a chunk body that calls
//     For itself — runs its chunks on its own goroutine: no queue, no second
//     team, no deadlock.
//   - The spin bound: between regions a helper polls for the next one for
//     helperSpin (100 µs; the constant says why), yielding its processor
//     every spinYield polls so that whatever is queued behind it runs within
//     about a microsecond. The caller waiting for the last chunks yields the
//     same way.
//   - The idle exit: a helper that has found no region for helperSpin exits,
//     and the next region starts one again, so a process at rest — between
//     steps, rounds or tests — holds no goroutine of this package.
//
// The price is the helper's spinning: on that box a step of the benchmark's
// node model costs 3 to 5 % more CPU seconds than with sleeping workers, and
// takes 32 ms where it took 45 (the second core buys 1.4 x).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

var workerCount atomic.Int64

func init() { workerCount.Store(int64(defaultWorkers())) }

func defaultWorkers() int {
	if s := os.Getenv("EDGETRAIN_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current worker count used by For and ForChunks.
func Workers() int { return int(workerCount.Load()) }

// SetWorkers overrides the worker count and returns the previous value.
// Passing n <= 0 restores the default (EDGETRAIN_WORKERS or GOMAXPROCS).
// It is primarily a testing and tuning knob; results are identical at any
// setting, only wall-clock changes.
func SetWorkers(n int) int {
	prev := Workers()
	if n <= 0 {
		n = defaultWorkers()
	}
	workerCount.Store(int64(n))
	return prev
}

// Chunks returns the number of fixed-size chunks that ForChunks will cut
// [0, n) into for the given grain. It depends only on n and grain, so
// callers can pre-size per-chunk partial-result buffers.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// ForChunks partitions [0, n) into ceil(n/grain) contiguous chunks of
// exactly grain indices (the last chunk may be shorter) and invokes
// fn(chunk, lo, hi) once per chunk, possibly concurrently. The chunk index
// is stable across worker counts, which is what makes ordered reductions
// over per-chunk partials bit-reproducible.
//
// fn must be safe to call concurrently from multiple goroutines; chunks are
// disjoint, so writes to per-chunk or per-index state need no locking. Every
// chunk has finished when ForChunks returns, also when it returns by a panic
// of fn on the calling goroutine; a panic of fn on a helper ends the process,
// as a panic on any goroutine nobody recovers does.
func ForChunks(n, grain int, fn func(chunk, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	nc := Chunks(n, grain)
	if nc == 0 {
		return
	}
	helpers := min(Workers(), nc) - 1
	if helpers > 0 {
		// A helper without a processor of its own only takes turns with
		// the caller. Asked only when there would be a helper: GOMAXPROCS
		// takes the scheduler's lock.
		helpers = min(helpers, runtime.GOMAXPROCS(0)-1)
	}
	if helpers < 1 || !team.taken.CompareAndSwap(false, true) {
		// One worker, one chunk, one processor — or the team is at work
		// for another caller (or for the region this call is nested in).
		for c := 0; c < nc; c++ {
			lo := c * grain
			fn(c, lo, min(lo+grain, n))
		}
		return
	}
	r := &region{fn: fn, n: n, grain: grain, nc: nc, helpers: int32(helpers)}
	r.runWithTeam()
}

// region is one ForChunks call the team works on.
type region struct {
	fn           func(chunk, lo, hi int)
	n, grain, nc int
	helpers      int32 // how many helpers may join

	joined atomic.Int32 // helpers that asked to join
	next   atomic.Int64 // next chunk to hand out; at or past nc, none is left
	done   atomic.Int64 // chunks helpers have finished
}

func (r *region) run(c int) {
	lo := c * r.grain
	r.fn(c, lo, min(lo+r.grain, r.n))
}

// claim hands out the next chunk, or reports that none is left.
func (r *region) claim() (c int, ok bool) {
	c = int(r.next.Add(1)) - 1
	return c, c < r.nc
}

// team is the process's one set of helper goroutines. At most one region is
// published at a time: the caller that took the team owns it until its
// region has ended.
var team struct {
	taken atomic.Bool            // a caller owns the team
	cur   atomic.Pointer[region] // its region; nil between regions
	live  atomic.Int32           // helper goroutines that have not decided to exit
}

const (
	// helperSpin is how long a helper polls for the next region before it
	// exits. Inside a training step the caller is back with the next
	// region after 32 µs of serial work on average (the benchmark's node
	// model on the 2-vCPU reference box), and waking a thread that went to
	// sleep costs about 40 µs there, so a helper that gave up sooner than
	// the gap would make every region pay that wake-up again: 20 µs of spin
	// bought nothing, 50 to 100 µs all there was to gain, and longer only
	// burns the core between steps.
	helperSpin = 100 * time.Microsecond
	// spinYield is how many polls a spinning goroutine makes between two
	// runtime.Gosched calls, so that a goroutine queued on its processor —
	// a fleet worker, a connection handler, the checkpoint writer — waits
	// about a microsecond for it, not the whole spin.
	spinYield = 256
)

// runWithTeam runs r on the team the caller has just taken: it publishes the
// region, makes sure enough helpers are awake, works through the chunks
// itself, and gives the team back once every chunk a helper took has finished.
func (r *region) runWithTeam() {
	mine := 0 // chunks this goroutine took
	defer func() {
		// On the way out by a panic of fn chunks may be left: hand out no
		// more, then wait for the ones helpers have in flight — never for a
		// helper that has not arrived.
		handedOut := min(int(r.next.Swap(int64(r.nc))), r.nc)
		for i := 1; int(r.done.Load()) < handedOut-mine; i++ {
			if i%spinYield == 0 {
				runtime.Gosched() // the helper may be queued behind this goroutine
			}
		}
		team.cur.Store(nil)
		team.taken.Store(false)
	}()
	team.cur.Store(r)
	for team.live.Load() < r.helpers {
		team.live.Add(1)
		go helper()
	}
	for {
		c, ok := r.claim()
		if !ok {
			return
		}
		mine++
		r.run(c)
	}
}

// helper works on the regions published while it is alive and exits once
// none has come for helperSpin, so a process at rest holds no team goroutine;
// the next region starts it again.
func helper() {
	var last *region // the region this helper has already seen
	idleSince := time.Now()
	for i := 1; ; i++ {
		r := team.cur.Load()
		if r == nil || r == last {
			if i%spinYield == 0 {
				if time.Since(idleSince) > helperSpin {
					team.live.Add(-1)
					return
				}
				runtime.Gosched()
			}
			continue
		}
		last = r
		if r.joined.Add(1) > r.helpers {
			continue // SetWorkers lowered the count while this helper was alive
		}
		for c, ok := r.claim(); ok; c, ok = r.claim() {
			r.run(c)
			r.done.Add(1)
		}
		idleSince = time.Now()
	}
}

// For partitions [0, n) like ForChunks and invokes fn(lo, hi) for each
// chunk. Use it for kernels whose chunks write disjoint output ranges; use
// ForChunks when a reduction needs the stable chunk index.
func For(n, grain int, fn func(lo, hi int)) {
	ForChunks(n, grain, func(_, lo, hi int) { fn(lo, hi) })
}
