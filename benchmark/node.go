package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

// The node_* workloads share one model and one dataset, so their loss
// sequences are comparable bit for bit: a ResNet-34 topology at one-eighth
// width with all four stages (a 21-stage chain), synthetic viewpoint frames,
// batch 8, Adam(0.01). The 16x16 input side is the size at which 100 steps
// of the slowest policy fit a 20 s run on the 2-core reference box.
const (
	nodeInput     = 16
	nodeBatch     = 8
	nodeSamples   = 128 // 16 batches, cycled
	nodeBaseWidth = 8
	nodeLR        = 0.01
	nodeViewpoint = 0.8
)

// nodeSpec is what distinguishes the three single-node workloads.
type nodeSpec struct {
	policy chain.Policy
	spill  bool // route checkpoints through a tiered store on a real directory
	save   bool // durable checkpoint after every step, resume during set-up
}

var nodeSpecs = map[string]nodeSpec{
	"node_storeall":   {policy: chain.Policy{Kind: "storeall"}},
	"node_revolve":    {policy: chain.Policy{Kind: "revolve", Slots: 3}},
	"node_spill_save": {policy: chain.Policy{Kind: "twolevel", Slots: 2, DiskSlots: 4}, spill: true, save: true},
}

// pacer decides when a closed loop of operations ends: after the time budget,
// but never before minOps operations. With no budget it ends at exactly
// minOps.
type pacer struct {
	start  time.Time
	budget time.Duration
	minOps int
}

func (p *pacer) done(ops int, now time.Time) bool {
	return ops >= p.minOps && now.Sub(p.start) >= p.budget
}

// loadGen is the closed-loop load generator of a node workload: a
// trainer.Dataset that hands TrainFrom the next batch only when the previous
// step has completed, cycles the underlying batches, and reports an empty
// epoch remainder once the pacer says the run is over. The program under
// test sees nothing but the generated batches.
type loadGen struct {
	ds    trainer.Dataset
	pace  pacer
	ended bool

	last     time.Time // previous hook (or first batch request)
	cpuStart float64
	cpuEnd   float64
	end      time.Time
	opMs     []float64
	loss     []uint64
	counts   map[string]int64 // the executor's own per-step counts, filled by train
}

// loopBatches bounds one epoch of the generator; no run gets near it.
const loopBatches = 1 << 16

func (g *loadGen) Len() int                { return g.ds.Len() }
func (g *loadGen) NumBatches(size int) int { return loopBatches }

func (g *loadGen) Batch(b, size int) trainer.Batch {
	if g.ended {
		return trainer.Batch{}
	}
	if g.last.IsZero() {
		// The first operation begins here: set-up is over.
		g.cpuStart = cpuSeconds()
		g.last = time.Now()
		g.pace.start = g.last
	}
	return g.ds.Batch(b%g.ds.NumBatches(size), size)
}

// hook is trainer.Config.Hook: one call per completed optimisation step.
func (g *loadGen) hook(_ int, loss float64) {
	now := time.Now()
	g.opMs = append(g.opMs, ms(now.Sub(g.last)))
	g.loss = append(g.loss, math.Float64bits(loss))
	g.last = now
	if g.pace.done(len(g.opMs), now) {
		g.ended = true
		g.end = now
		g.cpuEnd = cpuSeconds()
	}
}

// nodeState is a node workload after set-up, ready for its first step.
type nodeState struct {
	spec   nodeSpec
	chain  *chain.Chain // traced: the decorated chain
	ds     *trainer.SliceDataset
	tr     *trainer.Trainer
	store  store.Store // nil unless the workload spills
	dir    *ckpt.Dir   // nil unless the workload saves
	cursor trainer.Cursor
}

func (s *nodeState) close() {
	if s.store != nil {
		s.store.Close()
	}
}

func buildNodeModel(seed uint64) (*chain.Chain, error) {
	net, err := resnet.BuildSmall(resnet.SmallConfig{
		Variant: resnet.ResNet34, InputChannels: 1, NumClasses: vision.NumClasses,
		BaseWidth: nodeBaseWidth, Stages: 4, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return chain.FromSequential(net), nil
}

// setupNode does everything a node workload needs before its first step:
// model build, dataset generation, store and checkpoint directory, trainer,
// and for the saving workload one durable save resumed through Dir.Load.
// With a recorder the chain and the store are decorated for tracing.
func setupNode(spec nodeSpec, seed uint64, dir string, rec *recorder) (*nodeState, error) {
	c, err := buildNodeModel(seed)
	if err != nil {
		return nil, err
	}
	set := vision.Dataset(tensor.NewRNG(seed+1), nodeSamples, nodeViewpoint, nodeInput)
	samples := make([]trainer.Batch, len(set.Images))
	for i := range set.Images {
		samples[i] = trainer.Batch{Images: set.Images[i], Labels: []int{set.Labels[i]}}
	}
	st := &nodeState{spec: spec, chain: c, ds: trainer.NewSliceDataset(samples)}
	if rec != nil {
		st.chain = traceChain(c, rec)
	}
	pol := spec.policy
	if spec.spill {
		ts, err := store.NewTiered(filepath.Join(dir, "spill"))
		if err != nil {
			return nil, err
		}
		st.store = ts
		if rec != nil {
			st.store = &tracedStore{inner: ts, rec: rec}
		}
		pol.Store = st.store
	}
	st.tr, err = trainer.New(st.chain, trainer.Config{
		Epochs: 1, BatchSize: nodeBatch, Optimizer: trainer.NewAdam(nodeLR), Policy: pol,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	if spec.save {
		if st.dir, err = ckpt.Open(filepath.Join(dir, "ckpt")); err != nil {
			st.close()
			return nil, err
		}
		if _, err := st.tr.SaveCheckpoint(st.dir, trainer.Cursor{}); err != nil {
			st.close()
			return nil, err
		}
		sess, _, err := st.dir.Load()
		if err != nil {
			st.close()
			return nil, err
		}
		if st.cursor, err = st.tr.RestoreSession(sess); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// train runs the workload through trainer.TrainFrom, the entry point
// cmd/edgetrainer wraps, under the given pacer.
func (s *nodeState) train(pace pacer) (*loadGen, error) {
	g := &loadGen{ds: s.ds, pace: pace, opMs: make([]float64, 0, 1024), loss: make([]uint64, 0, 1024)}
	s.tr.Cfg.Hook = g.hook
	var cp *trainer.CheckpointPlan
	if s.spec.save {
		cp = &trainer.CheckpointPlan{Dir: s.dir, EverySteps: 1}
	}
	stats, err := s.tr.TrainFrom(g, s.cursor, cp)
	if err != nil {
		return nil, err
	}
	if !g.ended {
		return nil, fmt.Errorf("training ended after %d steps before the pacer did", len(g.opMs))
	}
	st, steps := stats[0], len(g.opMs)
	g.counts = stepCounts(st.ForwardEvals/steps, st.BackwardEvals/steps, st.DiskWrites/steps, st.DiskReads/steps)
	return g, nil
}

// stepCounts are the executor's exact per-step counts, the ones a measured
// run and its traced run must agree on.
func stepCounts(forwardEvals, backwardEvals, diskWrites, diskReads int) map[string]int64 {
	return map[string]int64{
		"forward_evals_per_step": int64(forwardEvals), "backward_evals_per_step": int64(backwardEvals),
		"disk_writes_per_step": int64(diskWrites), "disk_reads_per_step": int64(diskReads),
	}
}

// paramHash fingerprints every parameter and every piece of layer state of
// the chain, bit for bit.
func paramHash(c *chain.Chain) string {
	h := sha256.New()
	var buf [8]byte
	write := func(t *tensor.Tensor) {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, p := range c.Params() {
		write(p.Value)
	}
	for _, s := range nn.CollectState(c.Stages) {
		write(s.Tensor)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference trains a fresh, untraced copy of a node workload for exactly ops
// steps and returns its loss bits and step times: the sequence every other
// way of running the same computation must reproduce.
func reference(name string, seed uint64, root string, ops int) (*loadGen, error) {
	dir, err := os.MkdirTemp(root, "ref-")
	if err != nil {
		return nil, err
	}
	st, err := setupNode(nodeSpecs[name], seed, dir, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	return st.train(pacer{minOps: ops})
}

func equalPrefix(a, b []uint64, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lossFell is correctness check 5: training made progress. A single batch's
// loss is noisy, so the trailing mean over up to one pass of the data is
// compared with the first step's loss. Three smoke operations on three
// different batches cannot show progress; there the check is that the loss
// stayed finite.
func lossFell(loss []uint64, window int, smoke bool) checkResult {
	n := min(window, len(loss)-1)
	if n < 1 {
		return checkResult{"loss_fell", false, "fewer than two operations"}
	}
	tail := 0.0
	for _, b := range loss[len(loss)-n:] {
		tail += math.Float64frombits(b)
	}
	tail /= float64(n)
	first := math.Float64frombits(loss[0])
	ok := tail < first
	if smoke {
		ok = !math.IsNaN(tail) && !math.IsInf(tail, 0)
	}
	return checkResult{"loss_fell", ok,
		fmt.Sprintf("first %.4f, mean of last %d %.4f", first, n, tail)}
}

// runNode runs one node workload, measured or traced.
func runNode(o runOptions) (*runResult, error) {
	spec := nodeSpecs[o.workload]
	res := newRunResult(o)

	// Set-up, several times over so one slow directory creation or page
	// fault burst does not decide setup_s; the last one is kept and run.
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	var st *nodeState
	var setups []float64
	for i := 0; i < o.setups; i++ {
		dir, err := os.MkdirTemp(o.root, "setup-")
		if err != nil {
			return nil, err
		}
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, err = setupNode(spec, o.seed, dir, rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	pace := pacer{budget: time.Duration(o.seconds * float64(time.Second)), minOps: o.minOps}

	if !o.traced {
		g, err := st.train(pace)
		if err != nil {
			return nil, err
		}
		res.finishMeasured(g.opMs, len(g.opMs)*nodeBatch, g.end.Sub(g.pace.start), g.cpuEnd-g.cpuStart, setups, o.beyond)
		res.LossBits, res.Counts = g.loss, g.counts
	} else {
		if err := st.traceSteps(pace, rec, res, o.root); err != nil {
			return nil, err
		}
		if o.traceDir != "" {
			if err := writeChromeTrace(filepath.Join(o.traceDir, o.workload+".trace.json"), rec.spans); err != nil {
				return nil, err
			}
		}
	}
	res.ParamHash = paramHash(st.chain)
	res.check(lossFell(res.LossBits, nodeSamples/nodeBatch, o.smoke))

	// The same computation, run another way, must give the same bits.
	// Measured: the first steps under the other side of the checkpointing
	// trade (plain backprop for a checkpointed workload and the reverse).
	// Traced: the first steps untraced through the trainer, whose step times
	// are also the base of the tracing overhead and, under store-all, of rho.
	n := min(o.verifyOps, len(res.LossBits))
	other := "node_storeall"
	if o.workload == other {
		other = "node_revolve"
	}
	if !o.traced {
		ref, err := reference(other, o.seed, o.root, n)
		if err != nil {
			return nil, err
		}
		res.check(checkResult{"loss_bits_match_" + other, equalPrefix(res.LossBits, ref.loss, n),
			fmt.Sprintf("first %d steps", n)})
	} else {
		self, err := reference(o.workload, o.seed, o.root, n)
		if err != nil {
			return nil, err
		}
		res.check(checkResult{"traced_loss_bits_match_untraced", equalPrefix(res.LossBits, self.loss, n),
			fmt.Sprintf("first %d steps", n)})
		base := self
		if o.workload != "node_storeall" {
			if base, err = reference("node_storeall", o.seed, o.root, n); err != nil {
				return nil, err
			}
			res.check(checkResult{"loss_bits_match_node_storeall", equalPrefix(res.LossBits, base.loss, n),
				fmt.Sprintf("first %d steps", n)})
		}
		res.Metrics.set("chain.rho_measured", median(self.opMs)/median(base.opMs))
		res.Metrics.set("obs.trace_overhead_ratio", res.TracedOpMs/median(self.opMs))
		kernelMetrics(res.Metrics, nodeBaseWidth, nodeInput, nodeBatch)
	}

	if spec.save {
		// Check 3: the last durable checkpoint, loaded into a fresh trainer,
		// is the live model.
		fresh, err := buildNodeModel(o.seed + 1000) // different weights until restored
		if err != nil {
			return nil, err
		}
		ft, err := trainer.New(fresh, trainer.Config{BatchSize: nodeBatch, Optimizer: trainer.NewAdam(nodeLR)})
		if err != nil {
			return nil, err
		}
		_, err = ft.ResumeFrom(st.dir)
		res.check(checkResult{"checkpoint_reproduces_model", err == nil && paramHash(fresh) == res.ParamHash,
			fmt.Sprintf("load error: %v", err)})
	}
	return res, nil
}

// traceSteps drives the step loop through the public decomposition of
// chain.Step — Dataset.Batch, Chain.ZeroGrads, Policy.Plan,
// chain.ExecuteWithStore or ExecutePlain, Optimizer.Step,
// Trainer.SaveCheckpoint — with a span around each call, and fills the
// per-layer metrics from the spans.
func (s *nodeState) traceSteps(pace pacer, rec *recorder, res *runResult, root string) error {
	pol := s.tr.Cfg.Policy
	params := s.chain.Params()
	l := s.chain.Len()
	nb := s.ds.NumBatches(nodeBatch)
	plain := pol.Kind == "storeall" && pol.Store == nil

	var peakState, peakDisk int64
	var diskWrites, diskReads, fwdEvals []int
	var spillBytes []float64 // per step, tensor bytes Put with the disk tier
	var spilled int64
	var saveMs, opMs []float64

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pace.start = time.Now()
	last := pace.start
	for op := 0; ; op++ {
		rec.op = op
		step := rec.begin("step", "")
		var batch trainer.Batch
		rec.timed("trainer.batch", func() { batch = s.ds.Batch(op%nb, nodeBatch) })
		ce := nn.NewSoftmaxCrossEntropy()
		var loss float64
		lossGrad := func(out *tensor.Tensor) *tensor.Tensor {
			id := rec.begin("trainer.loss", "")
			loss = ce.Forward(out, batch.Labels)
			g := ce.Backward()
			rec.end(id)
			return g
		}
		rec.timed("trainer.zero_grads", s.chain.ZeroGrads)

		var result *chain.Result
		var err error
		if plain {
			rec.timed("chain.execute", func() { result, err = chain.ExecutePlain(s.chain, batch.Images, lossGrad, true) })
		} else {
			var sched schedule.Schedule
			rec.timed("plan.build", func() {
				p := pol
				p.ActivationBytes = batch.Images.Bytes()
				p.WeightBytes = 2 * nn.ParamBytes(s.chain.Stages)
				sched, err = p.Plan(l)
			})
			if err != nil {
				return err
			}
			st := pol.Store
			if st == nil {
				st = &tracedStore{inner: store.NewRAM(), rec: rec}
			}
			rec.timed("chain.execute", func() {
				result, err = chain.ExecuteWithStore(s.chain, batch.Images, lossGrad, sched, st, true)
			})
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", op, err)
		}
		rec.timed("trainer.optimizer", func() { s.tr.Cfg.Optimizer.Step(params) })
		if s.spec.save {
			d := rec.timed("ckpt.save", func() {
				_, err = s.tr.SaveCheckpoint(s.dir, trainer.Cursor{Batch: op + 1})
			})
			if err != nil {
				return fmt.Errorf("step %d save: %w", op, err)
			}
			saveMs = append(saveMs, ms(d))
		}
		rec.end(step)

		now := time.Now()
		opMs = append(opMs, ms(now.Sub(last)))
		last = now
		res.LossBits = append(res.LossBits, math.Float64bits(loss))
		peakState = max(peakState, result.PeakStateBytes)
		peakDisk = max(peakDisk, result.PeakDiskBytes)
		diskWrites = append(diskWrites, result.DiskWrites)
		diskReads = append(diskReads, result.DiskReads)
		fwdEvals = append(fwdEvals, result.ForwardEvals)
		if ts, ok := s.store.(*tracedStore); ok {
			spillBytes = append(spillBytes, float64(ts.spilled-spilled))
			spilled = ts.spilled
		}
		if pace.done(op+1, now) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	ops := len(opMs)
	res.Attempted, res.Samples, res.TracedOpMs = ops, ops*nodeBatch, median(opMs)

	m := res.Metrics
	dur, self := durations(rec.spans), selfTimes(rec.spans)
	m.set("nn.forward_ms_per_step", median(perOp(rec.spans, dur, "nn.forward", ops)))
	m.set("nn.backward_ms_per_step", median(perOp(rec.spans, dur, "nn.backward", ops)))
	fwdCalls, err := constant(count(rec.spans, "nn.forward", ops), "nn.forward calls")
	if err != nil {
		return err
	}
	bwdCalls, err := constant(count(rec.spans, "nn.backward", ops), "nn.backward calls")
	if err != nil {
		return err
	}
	m.set("nn.forward_calls_per_step", float64(fwdCalls))
	m.set("nn.backward_calls_per_step", float64(bwdCalls))
	m.set("chain.execute_ms_per_step", median(perOp(rec.spans, dur, "chain.execute", ops)))
	m.set("chain.self_ms_per_step", median(perOp(rec.spans, self, "chain.execute", ops)))
	m.set("chain.recompute_forwards_per_step", float64(fwdCalls-l))
	m.set("chain.peak_state_mb", float64(peakState)/1e6)
	m.set("plan.build_ms_per_step", median(perOp(rec.spans, dur, "plan.build", ops)))
	if err := planMetrics(m, pol, l); err != nil {
		return err
	}
	m.set("store.put_ms_per_step", median(perOp(rec.spans, dur, "store.put", ops)))
	m.set("store.get_ms_per_step", median(perOp(rec.spans, dur, "store.get", ops)))
	w, err := constant(diskWrites, "disk writes")
	if err != nil {
		return err
	}
	r, err := constant(diskReads, "disk reads")
	if err != nil {
		return err
	}
	m.set("store.disk_writes_per_step", float64(w))
	m.set("store.disk_reads_per_step", float64(r))
	m.set("store.spill_mb_per_step", median(spillBytes)/1e6)
	m.set("store.peak_disk_mb", float64(peakDisk)/1e6)
	m.set("trainer.batch_ms_per_step", median(perOp(rec.spans, dur, "trainer.batch", ops)))
	m.set("trainer.optimizer_ms_per_step", median(perOp(rec.spans, dur, "trainer.optimizer", ops)))
	m.set("trainer.save_stall_ms_per_step", median(perOp(rec.spans, dur, "ckpt.save", ops)))
	m.set("trainer.alloc_mb_per_step", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(ops))
	m.set("trainer.gc_cycles_per_100_steps", 100*float64(after.NumGC-before.NumGC)/float64(ops))
	if s.spec.save {
		if err := ckptMetrics(m, s.dir, root); err != nil {
			return err
		}
		m.set("ckpt.save_ms_p50", median(saveMs)) // the saves the steps waited for
	}
	// The executor's own count of forward sweeps must agree with what the
	// decorated layers saw: its Advance forwards plus one per adjoint.
	sweeps, err := constant(fwdEvals, "forward evals")
	if err != nil {
		return err
	}
	res.Counts = stepCounts(sweeps, l, w, r)
	want := sweeps
	if !plain {
		want += l
	}
	res.check(checkResult{"layer_calls_match_executor", fwdCalls == want && bwdCalls == l,
		fmt.Sprintf("decorators saw %d forwards, %d backwards; executor reports %d", fwdCalls, bwdCalls, want)})
	return nil
}

// constant returns the value every operation reported, or an error when the
// operations disagree: a per-step count that varies is not a count.
func constant(values []int, what string) (int, error) {
	for _, v := range values {
		if v != values[0] {
			return 0, fmt.Errorf("%s vary between operations: %v", what, values)
		}
	}
	return values[0], nil
}

// planMetrics reports what the planner predicts for the policy: the
// recompute factor under the paper's cost model and the peak number of
// retained states, from plan.Build and schedule.Run.
func planMetrics(m metricSet, pol chain.Policy, l int) error {
	sched, err := pol.Plan(l)
	if err != nil {
		return err
	}
	tr, err := schedule.Run(sched)
	if err != nil {
		return err
	}
	m.set("plan.rho_predicted", math.Max(1, checkpoint.DefaultCostModel.Rho(l, tr.Forwards)))
	m.set("plan.peak_states_predicted", float64(tr.PeakSlots+1))
	return nil
}
