// Command crash_resume demonstrates the durable checkpoint format and the
// crash-safe resume engine end to end: it trains a small conv/batch-norm
// student, kills the training process mid-epoch (a real, ungraceful process
// death via os.Exit — no deferred cleanup runs, exactly like a power loss on
// an edge node), resumes from the last durable checkpoint in a fresh
// process, and verifies the final weights are bit-identical to a run that
// was never interrupted. It finishes by corrupting the slot file that holds
// the newest checkpoint and showing Load fall back to the previous one.
//
// Run with:
//
//	go run ./examples/crash_resume
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

const (
	modelSeed = 42
	dataSeed  = 99
	epochs    = 2
	batchSize = 2
	samples   = 12 // 6 optimisation steps per epoch
	every     = 5  // checkpoint every 5 steps (step 5 is mid-epoch 0)
	crashStep = 8  // the victim process dies here, mid-epoch 1

	crashEnv = "EDGETRAIN_CRASH_STEP"
	dirEnv   = "EDGETRAIN_CRASH_DIR"
)

// buildModel constructs the deterministic student: conv + batch norm, so a
// checkpoint must carry running statistics besides the weights.
func buildModel() *chain.Chain {
	rng := tensor.NewRNG(modelSeed)
	return chain.New(
		nn.NewConv2D("c1", 1, 4, 3, 1, 1, true, rng),
		nn.NewBatchNorm2D("bn1", 4),
		nn.NewReLU("r1"),
		nn.NewConv2D("c2", 4, 4, 3, 1, 1, true, rng),
		nn.NewBatchNorm2D("bn2", 4),
		nn.NewReLU("r2"),
		nn.NewFlatten("flat"),
		nn.NewLinear("head", 4*8*8, 3, true, rng),
	)
}

func buildDataset() *trainer.SliceDataset {
	rng := tensor.NewRNG(dataSeed)
	var ds []trainer.Batch
	for i := 0; i < samples; i++ {
		ds = append(ds, trainer.Batch{
			Images: tensor.RandNormal(rng, 0, 1, 1, 1, 8, 8),
			Labels: []int{i % 3},
		})
	}
	return trainer.NewSliceDataset(ds)
}

func buildTrainer() *trainer.Trainer {
	tr, err := trainer.New(buildModel(), trainer.Config{
		Epochs:    epochs,
		BatchSize: batchSize,
		Optimizer: trainer.NewAdam(0.01),
	})
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

// fingerprint hashes the full training state (weights + batch-norm running
// statistics) bit-exactly.
func fingerprint(c *chain.Chain) (uint64, int) {
	h := uint64(1469598103934665603) // FNV-1a over the float64 bit patterns
	words := 0
	mix := func(v float64) {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 1099511628211
		}
		words++
	}
	for _, p := range c.Params() {
		for _, v := range p.Value.Data() {
			mix(v)
		}
	}
	for _, st := range nn.CollectState(c.Stages) {
		for _, v := range st.Tensor.Data() {
			mix(v)
		}
	}
	return h, words
}

// runVictim is the child process: train with durable checkpoints and die
// ungracefully mid-epoch.
func runVictim() {
	crashAt, err := strconv.Atoi(os.Getenv(crashEnv))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := ckpt.Open(os.Getenv(dirEnv))
	if err != nil {
		log.Fatal(err)
	}
	tr := buildTrainer()
	steps := 0
	tr.Cfg.Hook = func(step int, loss float64) {
		steps++
		if steps == crashAt {
			fmt.Printf("  [victim] power loss at step %d — os.Exit, no cleanup\n", steps)
			os.Exit(137)
		}
	}
	cp := &trainer.CheckpointPlan{Dir: dir, EverySteps: every, Seed: modelSeed}
	if _, err := tr.TrainFrom(buildDataset(), trainer.Cursor{}, cp); err != nil {
		log.Fatal(err)
	}
	log.Fatal("victim finished training — it was supposed to crash")
}

func main() {
	if os.Getenv(crashEnv) != "" {
		runVictim()
		return
	}

	fmt.Println("=== durable checkpoints & crash-safe resume ===")
	fmt.Println()

	// Act 1: the reference run, never interrupted.
	fmt.Println("act 1: uninterrupted reference run")
	ref := buildTrainer()
	stats, err := ref.Train(buildDataset())
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range stats {
		fmt.Printf("  epoch %d: loss=%.4f\n", st.Epoch, st.Loss)
	}
	wantHash, words := fingerprint(ref.Chain)
	fmt.Printf("  final state: %d float64 words, fingerprint %#x\n\n", words, wantHash)

	// Act 2: the same run in a separate process, killed mid-epoch. The child
	// is this same binary with the crash environment set.
	workDir, err := os.MkdirTemp("", "edgetrain-crash-resume-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)
	ckptPath := filepath.Join(workDir, "checkpoints")
	fmt.Printf("act 2: victim process, checkpointing to %s every %d steps\n", ckptPath, every)
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), crashEnv+"="+strconv.Itoa(crashStep), dirEnv+"="+ckptPath)
	child.Stdout, child.Stderr = os.Stdout, os.Stderr
	err = child.Run()
	if err == nil {
		log.Fatal("victim exited cleanly; expected a crash")
	}
	fmt.Printf("  victim died: %v\n\n", err)

	// Act 3: a fresh process resumes from the last durable checkpoint.
	fmt.Println("act 3: fresh process resumes")
	dir, err := ckpt.Open(ckptPath)
	if err != nil {
		log.Fatal(err)
	}
	_, latest, err := dir.Load()
	if err != nil {
		log.Fatal(err)
	}
	resumed := buildTrainer()
	cur, err := resumed.ResumeFrom(dir)
	if err != nil {
		log.Fatal(err)
	}
	// Saves are written in the background and joined before the next
	// optimizer step: the checkpoint taken after step k is durable before
	// step k+1 changes the weights. The victim saved after step 5 and died in
	// step 8, so that is the one.
	fmt.Printf("  loaded %s, the checkpoint taken after step %d (the victim died in step %d) -> resume at epoch %d, batch %d\n",
		latest, cur.Epoch*(samples/batchSize)+cur.Batch, crashStep, cur.Epoch, cur.Batch)
	cp := &trainer.CheckpointPlan{Dir: dir, EverySteps: every, Seed: modelSeed}
	if _, err := resumed.TrainFrom(buildDataset(), cur, cp); err != nil {
		log.Fatal(err)
	}
	gotHash, gotWords := fingerprint(resumed.Chain)
	fmt.Printf("  resumed final state: %d words, fingerprint %#x\n", gotWords, gotHash)
	if gotHash != wantHash || gotWords != words {
		log.Fatal("FAILURE: resumed weights differ from the uninterrupted run")
	}
	fmt.Println("  bit-identical to the uninterrupted run ✓")
	fmt.Println()

	// Act 4: corrupt the slot holding the newest checkpoint; Load falls back
	// to the previous slot instead of loading garbage.
	fmt.Println("act 4: corruption recovery")
	newest, latest, err := dir.Load()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(ckptPath, latest)
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  flipped one byte in %s, the newest checkpoint (cursor epoch %d, batch %d)\n",
		latest, newest.Epoch, newest.Step)
	s, from, err := dir.Load()
	if err != nil {
		log.Fatal(err)
	}
	if from == latest {
		log.Fatal("FAILURE: Load accepted the corrupted slot")
	}
	fmt.Printf("  its CRC32 failed, and Load fell back to %s, the previous checkpoint (cursor epoch %d, batch %d)\n",
		from, s.Epoch, s.Step)
	fmt.Println()
	fmt.Println("every checkpoint byte is covered by a CRC32; a save overwrites the oldest")
	fmt.Println("of three slot files in place and fsyncs it once, so a crash at any instant")
	fmt.Println("leaves the two checkpoints before it loadable on the node's SD card.")
}
