package coord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// runStateWorkers runs one life of the named workers against addr and waits
// for them. Their errors are returned, not judged: a worker released by a
// failing coordinator ends however the coordinator's last frame told it to.
func runStateWorkers(tr Transport, addr string, n int, seed uint64, samples int) []error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(tr, addr, workerOptions(fmt.Sprintf("w%d", i), seed, samples, nil))
		}(i)
	}
	wg.Wait()
	return errs
}

// TestFailedStateSaveFailsNextRound takes the StateDir away after round 2
// of 12 (an unmounted card: every later write fails). A coordinator that
// cannot persist its state must fail the run at the following round boundary
// with the ckpt error — not train on to round 12 and report it at the end —
// and once the directory is back its slot ring must hold a checkpoint from
// which a restarted coordinator finishes byte-identical to a fault-free run.
// Both coordinators must leave no goroutine behind.
func TestFailedStateSaveFailsNextRound(t *testing.T) {
	const (
		workers  = 3
		rounds   = 12
		samples  = 24
		seed     = uint64(13)
		pulledAt = 2
	)
	opt := func() trainer.Optimizer {
		o, err := trainer.NewOptimizer("momentum", 0.05)
		if err != nil {
			panic(err)
		}
		return o
	}
	agg, err := fleet.NewAggregator("fedavg", opt())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fleet.WorkerSpec, workers)
	for i := range specs {
		specs[i].Name = fmt.Sprintf("w%d", i)
	}
	ref, err := fleet.New(fleet.Config{Workers: specs, Rounds: rounds, Seed: seed, Aggregator: agg, Optimizer: opt},
		testModel(seed), testDataset(samples, seed))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	var want []*tensor.Tensor
	for _, p := range ref.Global().Params() {
		want = append(want, p.Value.Clone())
	}

	baseline := runtime.NumGoroutine()
	settle := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines running, %d before the coordinator started", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}

	stateDir := filepath.Join(t.TempDir(), "state")
	away := stateDir + ".unmounted"
	cfg := Config{
		Workers: workers, Rounds: rounds, Samples: samples, Seed: seed,
		Aggregator: "fedavg", Optimizer: "momentum", LR: 0.05,
		StateDir: stateDir, Logf: t.Logf,
	}
	lastRound := -1
	cfg1 := cfg
	cfg1.afterRound = func(r int) {
		lastRound = r
		if r == pulledAt {
			if err := os.Rename(stateDir, away); err != nil {
				t.Error(err)
			}
		}
	}
	tr := NewLoopback()
	c1, err := New(cfg1, testModel(seed))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c1.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	runStateWorkers(tr, addr, workers, seed, samples)
	_, err = c1.Wait()
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("coordinator over a vanished StateDir returned %v, want the ckpt error wrapping fs.ErrNotExist", err)
	}
	// Round 2's own write may have been in flight when the directory went
	// (then round 3's boundary reports it); round 3's certainly fails and is
	// reported at round 4's boundary, before that round's hook.
	if lastRound > pulledAt+1 {
		t.Fatalf("coordinator trained on to round %d after losing its StateDir in round %d", lastRound, pulledAt)
	}
	c1.Close()
	settle("failed coordinator")

	if err := os.Rename(away, stateDir); err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	s, name, err := d.Load()
	if err != nil {
		t.Fatalf("no loadable state after the failed saves: %v", err)
	}
	// The write of round 1 was joined before the directory went.
	if s.Round < pulledAt || s.Round > pulledAt+1 {
		t.Fatalf("%s resumes at round %d, want %d or %d", name, s.Round, pulledAt, pulledAt+1)
	}

	c2, err := New(cfg, testModel(seed))
	if err != nil {
		t.Fatal(err)
	}
	if c2.StartRound() != s.Round {
		t.Fatalf("restarted coordinator resumes at round %d, newest intact slot says %d", c2.StartRound(), s.Round)
	}
	addr, err = c2.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range runStateWorkers(tr, addr, workers, seed, samples) {
		if werr != nil {
			t.Fatalf("worker %d of the resumed run: %v", i, werr)
		}
	}
	if _, err := c2.Wait(); err != nil {
		t.Fatal(err)
	}
	var got []*tensor.Tensor
	for _, p := range c2.Global().Params() {
		got = append(got, p.Value)
	}
	assertBitEqual(t, got, want, "resume after failed state saves vs fault-free run")
	c2.Close()
	settle("resumed coordinator")
}

// globalStateHash fingerprints a coordinator session's global weights, layer
// state and global optimizer state, bit for bit.
func globalStateHash(s *ckpt.Session) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(vs []float64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	for _, nt := range append(append([]ckpt.NamedTensor(nil), s.Params...), s.LayerState...) {
		put(nt.Tensor.Data())
	}
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(s.Opt.Step)))
	for _, slot := range s.Opt.Slots {
		put(slot.Data)
	}
	return h.Sum64()
}

// TestStateSaveHoldsItsRoundsState pins the fence between the coordinator's
// background state save and the fold: the session views the global
// parameters and the global optimizer's slots, so the next round's Commit
// must not write them before the save is durable. afterRound records the
// global state every round leaves; a second Dir, opened before the run,
// loads the newest state at every boundary and after the run. It must be the
// previous boundary's or, if the save just submitted has landed, the current
// one's (the current one's after the run), and hold exactly the state
// recorded for it. Momentum gives the workers (FedAvg) and the global
// model (all-reduce) optimizer slots.
func TestStateSaveHoldsItsRoundsState(t *testing.T) {
	const (
		workers = 3
		rounds  = 6
		samples = 12
		seed    = uint64(5)
	)
	for _, agg := range []string{"fedavg", "allreduce"} {
		t.Run(agg, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state")
			reader, err := ckpt.Open(path) // a reader beside the writer: Open and Load write nothing
			if err != nil {
				t.Fatal(err)
			}
			var c *Coordinator
			recorded := map[int]uint64{}
			checked := 0
			cfg := Config{
				Workers: workers, Rounds: rounds, Samples: samples, Seed: seed,
				Aggregator: agg, Optimizer: "momentum", LR: 0.05,
				StateDir: path, Logf: t.Logf,
			}
			cfg.afterRound = func(r int) {
				live, err := c.core.SessionView(r + 1)
				if err != nil {
					t.Error(err)
					return
				}
				if agg == "allreduce" && len(live.Opt.Slots) == 0 {
					t.Errorf("round %d: the global momentum optimizer has no slots", r)
				}
				recorded[r+1] = globalStateHash(live)
				if r == 0 {
					return
				}
				s, name, err := reader.Load()
				if err != nil {
					t.Errorf("after round %d: no loadable state: %v", r, err)
					return
				}
				// The save this boundary submitted may already be durable,
				// so the newest state is this boundary's or the previous
				// one's; either way it must hold exactly what was recorded.
				if s.Round != r && s.Round != r+1 {
					t.Errorf("after round %d: %s resumes at round %d, want %d or %d", r, name, s.Round, r, r+1)
				} else if globalStateHash(s) != recorded[s.Round] {
					t.Errorf("after round %d: %s does not hold the state recorded after round %d", r, name, s.Round-1)
				}
				checked++
			}
			c, err = New(cfg, testModel(seed))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tr := NewLoopback()
			addr, err := c.Start(tr, "")
			if err != nil {
				t.Fatal(err)
			}
			for i, werr := range runStateWorkers(tr, addr, workers, seed, samples) {
				if werr != nil {
					t.Fatalf("worker %d: %v", i, werr)
				}
			}
			if _, err := c.Wait(); err != nil {
				t.Fatal(err)
			}
			if checked != rounds-1 {
				t.Fatalf("checked %d boundaries, want %d", checked, rounds-1)
			}
			s, name, err := reader.Load()
			if err != nil {
				t.Fatal(err)
			}
			if s.Round != rounds || globalStateHash(s) != recorded[rounds] {
				t.Fatalf("after the run: %s resumes at round %d, want %d holding the final state", name, s.Round, rounds)
			}
		})
	}
}
