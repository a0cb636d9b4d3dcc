package parallel

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunks(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{0, 4, 0},
		{-3, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{8, 4, 2},
		{9, 4, 3},
		{7, 0, 7}, // grain clamps to 1
	}
	for _, c := range cases {
		if got := Chunks(c.n, c.grain); got != c.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		prev := SetWorkers(workers)
		const n = 1003
		var hits [n]atomic.Int32
		For(n, 16, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d, %d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
		SetWorkers(prev)
	}
}

func TestForChunksBoundariesIndependentOfWorkers(t *testing.T) {
	collect := func(workers int) map[int][2]int {
		prev := SetWorkers(workers)
		defer SetWorkers(prev)
		out := make(map[int][2]int)
		ch := make(chan [3]int, 64)
		ForChunks(101, 8, func(chunk, lo, hi int) { ch <- [3]int{chunk, lo, hi} })
		close(ch)
		for c := range ch {
			out[c[0]] = [2]int{c[1], c[2]}
		}
		return out
	}
	serial := collect(1)
	parallelised := collect(6)
	if len(serial) != len(parallelised) {
		t.Fatalf("chunk count differs: %d vs %d", len(serial), len(parallelised))
	}
	for c, b := range serial {
		if parallelised[c] != b {
			t.Errorf("chunk %d boundaries differ: %v vs %v", c, b, parallelised[c])
		}
	}
}

func TestOrderedReductionIsBitIdentical(t *testing.T) {
	// The canonical deterministic-reduction pattern: per-chunk partials
	// folded in chunk order must match at every worker count.
	const n = 4096
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	sum := func(workers int) float64 {
		prev := SetWorkers(workers)
		defer SetWorkers(prev)
		parts := make([]float64, Chunks(n, 64))
		ForChunks(n, 64, func(chunk, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			parts[chunk] = s
		})
		total := 0.0
		for _, p := range parts {
			total += p
		}
		return total
	}
	ref := sum(1)
	for _, w := range []int{2, 3, 8} {
		if got := sum(w); got != ref {
			t.Errorf("workers=%d: sum %v differs from serial %v", w, got, ref)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(5)
	if Workers() != 5 {
		t.Fatalf("SetWorkers(5) not applied, got %d", Workers())
	}
	SetWorkers(0) // restore default
	if Workers() < 1 {
		t.Fatalf("default worker count must be >= 1, got %d", Workers())
	}
	SetWorkers(prev)
}

// cover runs one region over [0, n) and fails unless every index was visited
// exactly once. With nested set, every chunk body runs a region of its own.
func cover(t *testing.T, n, grain int, nested bool) {
	t.Helper()
	hits := make([]atomic.Int32, n)
	ForChunks(n, grain, func(_, lo, hi int) {
		if nested {
			For(hi-lo, 3, func(l, h int) {
				for i := lo + l; i < lo+h; i++ {
					hits[i].Add(1)
				}
			})
			return
		}
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d of %d (grain %d) visited %d times", i, n, grain, got)
			return
		}
	}
}

// waitUntil fails unless cond comes true within five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutinesWithoutTeam waits for the helpers earlier tests left spinning to
// exit and returns the goroutine count.
func goroutinesWithoutTeam(t *testing.T) int {
	t.Helper()
	waitUntil(t, "the team to exit", func() bool { return team.live.Load() == 0 })
	return runtime.NumGoroutine()
}

// onHelper reports whether the calling chunk body runs on a team helper.
func onHelper() bool {
	return bytes.Contains(debug.Stack(), []byte("parallel.helper("))
}

// TestConcurrentCallers has 8 goroutines call ForChunks at once: one of them
// has the team at any moment, the others run their chunks themselves, and the
// nested regions inside the chunk bodies always do.
func TestConcurrentCallers(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cover(t, 97+i%13, 1+i%5, i%2 == 1)
			}
		}()
	}
	wg.Wait()
}

// TestSetWorkersDuringRegions moves the worker count 1 → 2 → 8 → 1 between
// regions and, from a second goroutine, while regions run.
func TestSetWorkersDuringRegions(t *testing.T) {
	defer SetWorkers(Workers())
	for _, w := range []int{1, 2, 8, 1} {
		SetWorkers(w)
		cover(t, 1003, 16, false)
		cover(t, 211, 4, true)
	}
	stop := make(chan struct{})
	moved := make(chan struct{})
	go func() {
		defer close(moved)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetWorkers([]int{1, 2, 8, 1}[i%4])
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		cover(t, 64+i%7, 1+i%3, i%5 == 0)
	}
	close(stop)
	<-moved
}

// TestSingleProcessorRunsInline pins the inline rule: with one processor a
// helper could only take turns with its caller, so no goroutine is started
// whatever the worker count says.
func TestSingleProcessorRunsInline(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := goroutinesWithoutTeam(t)
	for i := 0; i < 100; i++ {
		cover(t, 257, 8, i%2 == 0)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("region %d: %d goroutines, %d before", i, n, before)
		}
	}
}

// TestCallerPanicReleasesTeam: a chunk body that panics on the calling
// goroutine is the caller's to recover (the kernels' shape checks are tested
// that way). On the way out no chunk may still be running, and the team must
// be free again — left taken, every later region would silently run inline.
func TestCallerPanicReleasesTeam(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	var running atomic.Int32
	for i := 0; i < 50; i++ {
		var thrown atomic.Bool
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the chunk body's panic", r)
				}
			}()
			ForChunks(64, 1, func(int, int, int) {
				running.Add(1)
				defer running.Add(-1)
				if !onHelper() {
					thrown.Store(true)
					panic("boom")
				}
				// A helper's chunk is in flight when the caller panics,
				// and for a while after.
				for !thrown.Load() {
					runtime.Gosched()
				}
				time.Sleep(100 * time.Microsecond)
			})
			t.Fatal("ForChunks returned without the panic")
		}()
		if n := running.Load(); n != 0 {
			t.Fatalf("%d chunk bodies still running after ForChunks panicked", n)
		}
		if team.taken.Load() || team.cur.Load() != nil {
			t.Fatal("team still taken after the caller's panic")
		}
		cover(t, 500, 4, false)
	}
}

// TestHelperPanicEndsProcess: a chunk body that panics on a helper takes the
// process down, as a panic on the per-call goroutines always did. The test
// re-executes itself for the crash.
func TestHelperPanicEndsProcess(t *testing.T) {
	const env = "EDGETRAIN_TEST_HELPER_PANIC"
	if os.Getenv(env) != "" {
		SetWorkers(2)
		runtime.GOMAXPROCS(2)
		for {
			ForChunks(64, 1, func(int, int, int) {
				if onHelper() {
					panic("boom on a helper")
				}
			})
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperPanicEndsProcess$", "-test.timeout", "30s")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !bytes.Contains(out, []byte("panic: boom on a helper")) {
		t.Fatalf("child ended with %v, want a crash from the helper's panic; output:\n%s", err, out)
	}
}

// TestTeamLifecycle: however many regions run, the team is at most
// Workers()-1 goroutines, and once no region has come for the idle period
// it is none — the goroutine-baseline tests of the packages above rely on it.
func TestTeamLifecycle(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	before := goroutinesWithoutTeam(t)
	var sum atomic.Int64
	for i := 0; i < 10000; i++ {
		ForChunks(32, 1, func(c, _, _ int) { sum.Add(int64(c)) })
		if n := runtime.NumGoroutine(); n > before+Workers()-1 {
			t.Fatalf("region %d: %d goroutines, %d before and %d workers", i, n, before, Workers())
		}
	}
	if want := int64(10000 * 31 * 32 / 2); sum.Load() != want {
		t.Fatalf("chunk indices sum to %d, want %d", sum.Load(), want)
	}
	waitUntil(t, "the goroutine count to come back", func() bool { return runtime.NumGoroutine() <= before })
}
