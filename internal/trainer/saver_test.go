package trainer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/obs"
)

// The tests of TrainFrom's background saves. All of them train the 8-stage
// conv/batch-norm chain of resume_test.go over 12 samples in batches of 2:
// 6 steps an epoch, 12 steps a run.
const (
	saverEpochs  = 2
	saverBatch   = 2
	saverSamples = 12
	saverPerEp   = saverSamples / saverBatch
)

var saverPolicies = map[string]chain.Policy{
	"storeall": {Kind: "storeall"},
	"revolve":  {Kind: "revolve", Slots: 3},
	"twolevel": {Kind: "twolevel", Slots: 2, DiskSlots: 2},
}

func saverTrainer(t testing.TB, pol chain.Policy) *Trainer {
	t.Helper()
	tr, err := New(convBNChain(7), Config{Epochs: saverEpochs, BatchSize: saverBatch, Optimizer: NewAdam(0.01), Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// stepsOf is a cursor's position as optimisation steps since the start.
func stepsOf(cur Cursor) int { return cur.Epoch*saverPerEp + cur.Batch }

// optimizerBytes fingerprints the optimizer state (Adam moments and step).
func optimizerBytes(t testing.TB, tr *Trainer) []uint64 {
	t.Helper()
	st, err := OptimizerStateView(tr.Cfg.Optimizer, tr.Chain.Params())
	if err != nil {
		t.Fatal(err)
	}
	out := []uint64{uint64(st.Step)}
	for _, slot := range st.Slots {
		for _, v := range slot.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// assertSameRun fails unless got finished in exactly the state want did:
// weights, layer state and optimizer state, bit for bit.
func assertSameRun(t *testing.T, want, got *Trainer) {
	t.Helper()
	for what, pair := range map[string][2][]uint64{
		"weights and layer state": {trainingBytes(want.Chain), trainingBytes(got.Chain)},
		"optimizer state":         {optimizerBytes(t, want), optimizerBytes(t, got)},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d words vs %d", what, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s differ from the uninterrupted run at word %d", what, i)
			}
		}
	}
}

// waitGoroutines fails unless the goroutine count comes back to the baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the call", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSaveDurableBeforeStepKPlus2 pins the durability contract: whatever
// EverySteps is, the checkpoint taken after step k is durable before step
// k+2 starts — a second Dir on the same path, read from the Hook of every
// step, never finds the newest intact slot further behind than that.
func TestSaveDurableBeforeStepKPlus2(t *testing.T) {
	ds := imageDataset(saverSamples)
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			path := t.TempDir()
			dir, err := ckpt.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			// The reader's own Dir, opened while nothing is being written:
			// Open reclaims crash leftovers, and a write in flight looks
			// like one.
			reader, err := ckpt.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			tr := saverTrainer(t, saverPolicies["storeall"])
			step, checked := 0, 0
			tr.Cfg.Hook = func(int, float64) {
				step++ // this is step `step`'s hook: steps 1..step-1 ran their afterStep
				due := (step - 2) / every * every
				if due < every {
					return
				}
				s, name, err := reader.Load()
				if err != nil {
					t.Errorf("step %d: no loadable checkpoint: %v", step, err)
					return
				}
				if got := stepsOf(Cursor{Epoch: s.Epoch, Batch: s.Step}); got < due {
					t.Errorf("step %d: %s holds the state after step %d, want step %d or later", step, name, got, due)
				}
				checked++
			}
			if _, err := tr.TrainFrom(ds, Cursor{}, &CheckpointPlan{Dir: dir, EverySteps: every}); err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Fatal("the hook never checked a checkpoint")
			}
			// The completion checkpoint is durable on return.
			s, _, err := reader.Load()
			if err != nil {
				t.Fatal(err)
			}
			if s.Epoch != saverEpochs {
				t.Fatalf("after TrainFrom: epoch cursor %d, want the completion checkpoint", s.Epoch)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// Environment of the re-executed victim of TestRealKillResume.
const (
	killDirEnv    = "EDGETRAIN_TEST_KILL_DIR"
	killStepEnv   = "EDGETRAIN_TEST_KILL_STEP"
	killPolicyEnv = "EDGETRAIN_TEST_KILL_POLICY"
	killEvery     = 2
)

// TestKillVictim is the process TestRealKillResume kills: it trains with
// periodic saves and dies in the Hook of the chosen step through os.Exit —
// no deferred call runs, no save is drained, exactly a power loss. Without
// the environment it does nothing.
func TestKillVictim(t *testing.T) {
	path := os.Getenv(killDirEnv)
	if path == "" {
		t.Skip("only runs as the child of TestRealKillResume")
	}
	killStep, err := strconv.Atoi(os.Getenv(killStepEnv))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := ckpt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := saverTrainer(t, saverPolicies[os.Getenv(killPolicyEnv)])
	step := 0
	tr.Cfg.Hook = func(int, float64) {
		if step++; step == killStep {
			os.Exit(137)
		}
	}
	_, err = tr.TrainFrom(imageDataset(saverSamples), Cursor{}, &CheckpointPlan{Dir: dir, EverySteps: killEvery})
	t.Fatalf("victim survived step %d (err %v)", killStep, err)
}

// TestRealKillResume kills a real training process at several steps and
// resumes it here: the surviving cursor is the last save point, or the
// last-but-one when the last write was still in flight, and the resumed run
// finishes in exactly the state of an uninterrupted one.
func TestRealKillResume(t *testing.T) {
	ds := imageDataset(saverSamples)
	for name, pol := range saverPolicies {
		ref := saverTrainer(t, pol)
		if _, err := ref.Train(ds); err != nil {
			t.Fatal(err)
		}
		// Step 5 dies with the save after step 4 possibly in flight; step 6
		// with it joined; step 9 mid-epoch 1; step 12 before the last join.
		for _, killStep := range []int{5, 6, 9, 12} {
			t.Run(fmt.Sprintf("%s/kill=%d", name, killStep), func(t *testing.T) {
				path := t.TempDir()
				victim := exec.Command(os.Args[0], "-test.run=^TestKillVictim$")
				victim.Env = append(os.Environ(), killDirEnv+"="+path,
					killStepEnv+"="+strconv.Itoa(killStep), killPolicyEnv+"="+name)
				out, err := victim.CombinedOutput()
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 137 {
					t.Fatalf("victim: %v, want exit status 137\n%s", err, out)
				}

				dir, err := ckpt.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				resumed := saverTrainer(t, pol)
				cur, err := resumed.ResumeFrom(dir)
				if err != nil {
					t.Fatal(err)
				}
				// Saves submitted before the kill: after steps 2, 4, ... up
				// to killStep-1. The newest may not have been joined.
				last := (killStep - 1) / killEvery * killEvery
				got := stepsOf(cur)
				if got != last && !(last == killStep-1 && got == last-killEvery) {
					t.Fatalf("resumed at step %d after a kill in step %d, want save point %d (or %d if that write was in flight)",
						got, killStep, last, last-killEvery)
				}
				if _, err := resumed.TrainFrom(ds, cur, &CheckpointPlan{Dir: dir, EverySteps: killEvery}); err != nil {
					t.Fatal(err)
				}
				assertSameRun(t, ref, resumed)
			})
		}
	}
}

// TestFailedSaveStopsTraining takes the checkpoint directory away mid-run (an
// unmounted card: every later write fails) and asserts that TrainFrom fails
// within one save interval with the ckpt error, that every span it started
// has ended, and — the directory back — that the slot ring still holds a good
// checkpoint from which a resumed run finishes bit-identical.
func TestFailedSaveStopsTraining(t *testing.T) {
	if obs.DefaultTracer() != nil {
		t.Fatal("tracing enabled at test entry")
	}
	ds := imageDataset(saverSamples)
	ref := saverTrainer(t, saverPolicies["revolve"])
	if _, err := ref.Train(ds); err != nil {
		t.Fatal(err)
	}
	const every, pullStep = 2, 5
	tracer := obs.NewTracer(0)
	obs.SetDefaultTracer(tracer)
	defer obs.SetDefaultTracer(nil)

	path := filepath.Join(t.TempDir(), "ckpt")
	away := path + ".unmounted"
	dir, err := ckpt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := saverTrainer(t, saverPolicies["revolve"])
	step := 0
	victim.Cfg.Hook = func(int, float64) {
		if step++; step == pullStep {
			if err := os.Rename(path, away); err != nil {
				t.Error(err)
			}
		}
	}
	_, err = victim.TrainFrom(ds, Cursor{}, &CheckpointPlan{Dir: dir, EverySteps: every})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("TrainFrom over a vanished directory returned %v, want the ckpt error wrapping fs.ErrNotExist", err)
	}
	// The save after step 4 may have been in flight when the directory went;
	// the one after step 6 certainly fails and is joined in step 7.
	if step > pullStep+every {
		t.Fatalf("training ran to step %d, want it stopped within %d steps of the failure at step %d", step, every, pullStep)
	}
	snapshots, saves := 0, 0
	for _, e := range tracer.Events() {
		switch e.Name {
		case "checkpoint-snapshot":
			snapshots++
		case "checkpoint-save":
			saves++
		}
	}
	// A snapshot span per save point reached, a save span per session handed
	// over — the failed ones included.
	if reached := step / every; snapshots != reached || saves < reached-1 || saves > reached {
		t.Fatalf("%d checkpoint-snapshot and %d checkpoint-save spans ended over %d save points", snapshots, saves, reached)
	}

	if err := os.Rename(away, path); err != nil {
		t.Fatal(err)
	}
	back, err := ckpt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := saverTrainer(t, saverPolicies["revolve"])
	cur, err := resumed.ResumeFrom(back)
	if err != nil {
		t.Fatalf("no loadable checkpoint after the failed saves: %v", err)
	}
	if got := stepsOf(cur); got != 2 && got != 4 {
		t.Fatalf("newest intact slot holds the state after step %d, want a save point that was published (2 or 4)", got)
	}
	if _, err := resumed.TrainFrom(ds, cur, &CheckpointPlan{Dir: back, EverySteps: every}); err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, resumed)
}

// TestSaveMetricsAndSpans reads the two checkpoint histograms and the two
// spans: trainer_ckpt_save_seconds covers the whole save, the new
// trainer_ckpt_stall_seconds only what the step loop waited, so over the same
// saves the stall total is the smaller; the write's span is on the saver's
// lane, the snapshot's on the step loop's, where train-step spans show each
// write overlapping the step after the one it saved.
func TestSaveMetricsAndSpans(t *testing.T) {
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		t.Fatal("observability enabled at test entry")
	}
	reg, tracer := obs.NewRegistry(), obs.NewTracer(0)
	obs.SetDefault(reg)
	obs.SetDefaultTracer(tracer)
	defer obs.SetDefault(nil)
	defer obs.SetDefaultTracer(nil)

	dir, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := saverTrainer(t, saverPolicies["storeall"])
	if _, err := tr.TrainFrom(imageDataset(saverSamples), Cursor{}, &CheckpointPlan{Dir: dir, EverySteps: 1}); err != nil {
		t.Fatal(err)
	}
	const saves = saverEpochs*saverPerEp + 1 // every step and the completion checkpoint
	save := reg.Histogram("trainer_ckpt_save_seconds", "", nil)
	stall := reg.Histogram("trainer_ckpt_stall_seconds", "", nil)
	if save.Count() != saves || stall.Count() != saves {
		t.Fatalf("%d save and %d stall observations, want %d of each", save.Count(), stall.Count(), saves)
	}
	if n := reg.Counter("trainer_ckpt_saves_total", "").Value(); n != saves {
		t.Fatalf("trainer_ckpt_saves_total = %d, want %d", n, saves)
	}
	if stall.Sum() <= 0 || stall.Sum() > save.Sum() {
		t.Fatalf("step loop stalled %.6fs on saves that took %.6fs", stall.Sum(), save.Sum())
	}
	lanes := map[string]int{}
	var steps, writes []obs.Event
	for _, e := range tracer.Events() {
		if e.Dur <= 0 {
			t.Fatalf("%s span without a duration", e.Name)
		}
		lanes[fmt.Sprintf("%s@%d", e.Name, e.Worker)]++
		switch e.Name {
		case "train-step":
			steps = append(steps, e)
		case "checkpoint-save":
			writes = append(writes, e)
		}
	}
	if lanes["checkpoint-save@-2"] != saves || lanes["checkpoint-snapshot@-1"] != saves ||
		lanes["train-step@-1"] != saves-1 || len(lanes) != 3 {
		t.Fatalf("spans by lane: %v, want %d checkpoint-save on lane -2, %d checkpoint-snapshot and %d train-step on lane -1",
			lanes, saves, saves, saves-1)
	}
	// The write of the save taken after step k runs while step k+1 does.
	for k, w := range writes[:len(steps)-1] {
		next := steps[k+1]
		if !w.Start.Before(next.Start.Add(next.Dur)) || !next.Start.Before(w.Start.Add(w.Dur)) {
			t.Fatalf("checkpoint-save %d (%v +%v) does not overlap train-step %d (%v +%v)",
				k+1, w.Start, w.Dur, k+2, next.Start, next.Dur)
		}
	}
}

// sessionHash fingerprints a session's weights, layer state and optimizer
// state, bit for bit.
func sessionHash(s *ckpt.Session) uint64 {
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

// TestCheckpointHoldsItsStepsState pins the fence between a background save
// and the optimizer: the session views the live weights and Adam moments, so
// the next step must not update them before the write is durable. The Hook
// records the training state after every step; a second Dir loads the newest
// checkpoint in every Hook and after the run, and each must hold exactly the
// state recorded for its cursor. In a Hook it must also be the last save
// point before the step, the contract "durable before step k+1 changes the
// weights".
func TestCheckpointHoldsItsStepsState(t *testing.T) {
	ds := imageDataset(saverSamples)
	for name, pol := range saverPolicies {
		for _, every := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/every=%d", name, every), func(t *testing.T) {
				path := t.TempDir()
				dir, err := ckpt.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				reader, err := ckpt.Open(path) // a reader beside the writer: Open and Load write nothing
				if err != nil {
					t.Fatal(err)
				}
				tr := saverTrainer(t, pol)
				recorded := map[int]uint64{}
				check := func(s *ckpt.Session, name string) int {
					t.Helper()
					got := stepsOf(Cursor{Epoch: s.Epoch, Batch: s.Step})
					if want, ok := recorded[got]; !ok || sessionHash(s) != want {
						t.Errorf("%s does not hold the state recorded after step %d", name, got)
					}
					return got
				}
				step, checked := 0, 0
				tr.Cfg.Hook = func(int, float64) {
					step++
					live, err := tr.SessionView(Cursor{})
					if err != nil {
						t.Fatal(err)
					}
					recorded[step] = sessionHash(live)
					due := (step - 1) / every * every
					if due == 0 {
						return
					}
					s, name, err := reader.Load()
					if err != nil {
						t.Errorf("step %d: no loadable checkpoint: %v", step, err)
						return
					}
					if got := check(s, name); got != due {
						t.Errorf("step %d: %s holds the state after step %d, want step %d", step, name, got, due)
					}
					checked++
				}
				if _, err := tr.TrainFrom(ds, Cursor{}, &CheckpointPlan{Dir: dir, EverySteps: every}); err != nil {
					t.Fatal(err)
				}
				if checked == 0 {
					t.Fatal("the hook never checked a checkpoint")
				}
				s, name, err := reader.Load()
				if err != nil {
					t.Fatal(err)
				}
				if got := check(s, name); got != step {
					t.Fatalf("after TrainFrom: %s holds the state after step %d, want the completion checkpoint (step %d)", name, got, step)
				}
			})
		}
	}
}

// TestCheckpointAllocBudget pins what a save point costs in memory: a run
// that saves after every step allocates, per step, less than half the
// parameter bytes more than the same run without a checkpoint plan. A save
// that copied the weights and both Adam moments paid three times the
// parameter bytes.
func TestCheckpointAllocBudget(t *testing.T) {
	const samples, batch = 32, 2
	const steps = samples / batch
	ds := imageDataset(samples)
	var paramBytes int64
	perStep := func(every int) float64 {
		rng := tensor.NewRNG(3)
		c := chain.New(
			nn.NewFlatten("flat"),
			nn.NewLinear("fc1", 64, 2048, true, rng),
			nn.NewReLU("r1"),
			nn.NewLinear("fc2", 2048, 3, true, rng),
		)
		paramBytes = nn.ParamBytes(c.Stages)
		tr, err := New(c, Config{Epochs: 1, BatchSize: batch, Optimizer: NewAdam(0.01), Policy: chain.Policy{Kind: "storeall"}})
		if err != nil {
			t.Fatal(err)
		}
		var cp *CheckpointPlan
		if every > 0 {
			dir, err := ckpt.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cp = &CheckpointPlan{Dir: dir, EverySteps: every}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tr.TrainFrom(ds, Cursor{}, cp); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / steps
	}
	plain := perStep(0)
	saving := perStep(1)
	extra := (saving - plain) / float64(paramBytes)
	t.Logf("%.0f KB per step without checkpoints, %.0f KB saving every step: %.2f x the %.0f KB of parameters more",
		plain/1e3, saving/1e3, extra, float64(paramBytes)/1e3)
	if extra >= 0.5 {
		t.Fatalf("a save point allocates %.2f x the parameter bytes, want under 0.5 x", extra)
	}
}
