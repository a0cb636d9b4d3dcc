package coord

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/plan"
)

// testModel is the deterministic model factory shared by the coordinator,
// the workers and the in-process reference fleet: a small MLP over flattened
// 8x8 frames.
func testModel(seed uint64) func() (*chain.Chain, error) {
	return func() (*chain.Chain, error) {
		rng := tensor.NewRNG(seed)
		return chain.New(
			nn.NewFlatten("flatten"),
			nn.NewLinear("fc1", 64, 24, true, rng),
			nn.NewReLU("relu1"),
			nn.NewLinear("fc2", 24, 16, true, rng),
			nn.NewReLU("relu2"),
			nn.NewLinear("fc3", 16, vision.NumClasses, true, rng),
		), nil
	}
}

// testDataset builds n labelled frames with a viewpoint drift across the
// sample index, so contiguous shards are non-IID.
func testDataset(n int, seed uint64) *trainer.SliceDataset {
	rng := tensor.NewRNG(seed)
	var samples []trainer.Batch
	for i := 0; i < n; i++ {
		c := vision.Class(i % vision.NumClasses)
		vp := 0.2 + 0.6*float64(i)/float64(max(n-1, 1))
		samples = append(samples, trainer.Batch{
			Images: vision.Sample(rng, c, vp, 8),
			Labels: []int{int(c)},
		})
	}
	return trainer.NewSliceDataset(samples)
}

const (
	eqWorkers = 3
	eqRounds  = 3
	eqSamples = 24
	eqSeed    = uint64(42)
)

func workerOptions(name string, seed uint64, samples int, hook func(round int) error) WorkerOptions {
	return WorkerOptions{
		Spec:    fleet.WorkerSpec{Name: name},
		Model:   func(a Assignment) (*chain.Chain, error) { return testModel(a.Seed)() },
		Dataset: func(a Assignment) (trainer.Dataset, error) { return testDataset(a.Samples, a.Seed), nil },

		beforeUpdate: hook,
	}
}

// runDistributed runs a full coordinated fleet over the given transport and
// returns the final global parameters and the report.
func runDistributed(t *testing.T, tr Transport, aggName string) ([]*tensor.Tensor, *fleet.Report) {
	t.Helper()
	return runDistributedSpec(t, tr, aggName, "")
}

// runDistributedSpec is runDistributed with an update-compression spec.
func runDistributedSpec(t *testing.T, tr Transport, aggName, compression string) ([]*tensor.Tensor, *fleet.Report) {
	t.Helper()
	c, err := New(Config{
		Workers:     eqWorkers,
		Rounds:      eqRounds,
		Samples:     eqSamples,
		Seed:        eqSeed,
		Aggregator:  aggName,
		Optimizer:   "momentum",
		LR:          0.05,
		Compression: compression,
	}, testModel(eqSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, eqWorkers)
	for i := 0; i < eqWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(tr, addr, workerOptions(fmt.Sprintf("w%d", i), eqSeed, eqSamples, nil))
		}(i)
	}
	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	var ps []*tensor.Tensor
	for _, p := range c.Global().Params() {
		ps = append(ps, p.Value.Clone())
	}
	return ps, rep
}

// undisturbedWeights runs the in-process engine on the fault tests'
// configuration (fedavg, momentum at 0.05, the named slots in order) and
// returns its final global parameters: what a coordinated run that recovered
// from its faults must equal bit for bit.
func undisturbedWeights(t *testing.T, names []string, rounds int, seed uint64, compression string) []*tensor.Tensor {
	t.Helper()
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
	specs := make([]fleet.WorkerSpec, len(names))
	for i, name := range names {
		specs[i].Name = name
	}
	ref, err := fleet.New(fleet.Config{
		Workers: specs, Rounds: rounds, Seed: seed, Aggregator: agg, Optimizer: opt, Compression: compression,
	}, testModel(seed), testDataset(eqSamples, seed))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	return globalWeights(ref)
}

// globalWeights copies out a run's global parameters.
func globalWeights(run interface{ Global() *chain.Chain }) []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, p := range run.Global().Params() {
		ps = append(ps, p.Value.Clone())
	}
	return ps
}

func assertBitEqual(t *testing.T, a, b []*tensor.Tensor, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d params vs %d", what, len(a), len(b))
	}
	for i := range a {
		ad, bd := a[i].Data(), b[i].Data()
		if len(ad) != len(bd) {
			t.Fatalf("%s: param %d size %d vs %d", what, i, len(ad), len(bd))
		}
		for j := range ad {
			if math.Float64bits(ad[j]) != math.Float64bits(bd[j]) {
				t.Fatalf("%s: param %d element %d: %v != %v", what, i, j, ad[j], bd[j])
			}
		}
	}
}

// assertReportParity pins that the coordinator's report and the in-process
// engine's say the same about the same run: per round, per worker and in
// total, everything except what only one of the two loops can measure — wall
// clock (Duration, Delay, WallClock), bytes on a wire (WireBytes), and the
// identity a worker announces in its hello (Name, Choice; slots are claimed
// in join order, so names differ).
func assertReportParity(t *testing.T, want, got *fleet.Report, what string) {
	t.Helper()
	type totals struct {
		aggregator, compression string
		modelBytes              int64
		uplinkMbps              float64
		up, rawUp, down         int64
		modeled                 time.Duration
		finalLoss               uint64
	}
	of := func(r *fleet.Report) totals {
		return totals{r.Aggregator, r.Compression, r.ModelBytes, r.UplinkMbps,
			r.TotalUplinkBytes, r.TotalRawUplinkBytes, r.TotalDownlinkBytes, r.ModeledUplink, math.Float64bits(r.FinalLoss)}
	}
	if w, g := of(want), of(got); w != g {
		t.Fatalf("%s: report header and totals %+v, in-process %+v", what, g, w)
	}
	if len(got.Rounds) != len(want.Rounds) || len(got.Workers) != len(want.Workers) {
		t.Fatalf("%s: %d rounds of %d workers, in-process %d of %d", what,
			len(got.Rounds), len(got.Workers), len(want.Rounds), len(want.Workers))
	}
	for r := range want.Rounds {
		w, g := want.Rounds[r], got.Rounds[r]
		if g.Participants != w.Participants || g.Dropouts != w.Dropouts ||
			math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
			g.UplinkBytes != w.UplinkBytes || g.RawUplinkBytes != w.RawUplinkBytes ||
			g.DownlinkBytes != w.DownlinkBytes || g.ModeledUplink != w.ModeledUplink {
			t.Fatalf("%s: round %d reads %+v, in-process %+v", what, r, g, w)
		}
		for i := range w.Workers {
			ww, gw := w.Workers[i], g.Workers[i]
			ww.Duration, ww.Delay, ww.WireBytes = 0, 0, 0
			gw.Duration, gw.Delay, gw.WireBytes = 0, 0, 0
			if math.Float64bits(gw.Loss) != math.Float64bits(ww.Loss) || gw != ww {
				t.Fatalf("%s: round %d worker %d reads %+v, in-process %+v", what, r, i, gw, ww)
			}
		}
	}
	for i := range want.Workers {
		w, g := want.Workers[i], got.Workers[i]
		w.Name, w.Choice, w.WireBytes = "", plan.AutoChoice{}, 0
		g.Name, g.Choice, g.WireBytes = "", plan.AutoChoice{}, 0
		if g != w {
			t.Fatalf("%s: worker %d summary %+v, in-process %+v", what, i, g, w)
		}
	}
}

// TestTransportEquivalence pins the tentpole guarantee: a 3-worker fleet run
// over the TCP transport produces byte-identical global weights to the
// in-process loopback run AND to the single-process fleet.Run, for both
// aggregation modes — and, the two loops standing on one round core, the
// same report, with full fp64 updates and under a lossy codec alike.
func TestTransportEquivalence(t *testing.T) {
	for _, aggName := range []string{"fedavg", "allreduce"} {
		t.Run(aggName, func(t *testing.T) {
			for _, compression := range []string{"", "int8+deflate"} {
				// In-process reference: the existing single-process engine with
				// the exact configuration the coordinator hands its workers.
				opt, err := trainer.NewOptimizer("momentum", 0.05)
				if err != nil {
					t.Fatal(err)
				}
				agg, err := fleet.NewAggregator(aggName, opt)
				if err != nil {
					t.Fatal(err)
				}
				specs := make([]fleet.WorkerSpec, eqWorkers)
				for i := range specs {
					specs[i].Name = fmt.Sprintf("w%d", i)
				}
				ref, err := fleet.New(fleet.Config{
					Workers:    specs,
					Rounds:     eqRounds,
					Seed:       eqSeed,
					Aggregator: agg,
					Optimizer: func() trainer.Optimizer {
						o, err := trainer.NewOptimizer("momentum", 0.05)
						if err != nil {
							panic(err)
						}
						return o
					},
					Compression: compression,
				}, testModel(eqSeed), testDataset(eqSamples, eqSeed))
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				refRep, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}
				var want []*tensor.Tensor
				for _, p := range ref.Global().Params() {
					want = append(want, p.Value.Clone())
				}

				loop, repLoop := runDistributedSpec(t, NewLoopback(), aggName, compression)
				assertBitEqual(t, loop, want, "loopback vs in-process")

				tcp, repTCP := runDistributedSpec(t, &TCP{}, aggName, compression)
				assertBitEqual(t, tcp, loop, "tcp vs loopback")

				for _, rep := range []*fleet.Report{repLoop, repTCP} {
					if len(rep.Rounds) != eqRounds {
						t.Fatalf("report has %d rounds", len(rep.Rounds))
					}
					if rep.TotalWireBytes == 0 {
						t.Fatalf("no wire bytes measured")
					}
					if !strings.Contains(rep.Render(), "wire (MB)") {
						t.Fatalf("report render lacks wire column")
					}
					for _, rs := range rep.Rounds {
						if rs.Participants != eqWorkers || rs.Dropouts != 0 {
							t.Fatalf("round %d: %d participants, %d dropouts", rs.Round, rs.Participants, rs.Dropouts)
						}
						if rs.WallClock <= 0 {
							t.Fatalf("round %d has no wall clock", rs.Round)
						}
					}
				}
				assertReportParity(t, refRep, repLoop, fmt.Sprintf("loopback, compression %q", compression))
				assertReportParity(t, refRep, repTCP, fmt.Sprintf("tcp, compression %q", compression))
			}
		})
	}
}

// TestLosslessCompressionEquivalence extends the equivalence pin to the
// update-compression pipeline: the lossless codec (k=1, fp64, raw framing)
// negotiated over the handshake produces byte-identical global weights to an
// uncompressed distributed run, for both aggregation modes, over loopback
// and TCP alike.
func TestLosslessCompressionEquivalence(t *testing.T) {
	const lossless = "topk:1+fp64+raw"
	for _, aggName := range []string{"fedavg", "allreduce"} {
		t.Run(aggName, func(t *testing.T) {
			want, _ := runDistributed(t, NewLoopback(), aggName)
			loop, repLoop := runDistributedSpec(t, NewLoopback(), aggName, lossless)
			assertBitEqual(t, loop, want, "lossless loopback vs uncompressed")
			tcp, repTCP := runDistributedSpec(t, &TCP{}, aggName, lossless)
			assertBitEqual(t, tcp, want, "lossless tcp vs uncompressed")
			for _, rep := range []*fleet.Report{repLoop, repTCP} {
				if rep.Compression != lossless {
					t.Fatalf("report compression %q, want %q", rep.Compression, lossless)
				}
				if rep.TotalRawUplinkBytes <= 0 || rep.TotalUplinkBytes <= 0 {
					t.Fatalf("missing uplink accounting: raw %d, encoded %d",
						rep.TotalRawUplinkBytes, rep.TotalUplinkBytes)
				}
				if rep.TotalUplinkBytes == rep.TotalRawUplinkBytes {
					t.Fatal("encoded uplink equals raw — updates did not cross encoded")
				}
			}
		})
	}
}

// TestLossyCompressionOverWire runs a genuinely lossy codec through the full
// handshake-negotiated TCP path: the run completes, weights stay finite, and
// the report shows the uplink reduction.
func TestLossyCompressionOverWire(t *testing.T) {
	const spec = "topk:0.25+int8+deflate"
	ps, rep := runDistributedSpec(t, &TCP{}, "fedavg", spec)
	for _, p := range ps {
		for _, v := range p.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite global weight after lossy distributed run")
			}
		}
	}
	if rep.Compression != spec {
		t.Fatalf("report compression %q", rep.Compression)
	}
	if rep.CompressionRatio() < 4 {
		t.Fatalf("compression ratio %.2f < 4 for %s", rep.CompressionRatio(), spec)
	}
	if rep.ModeledUplink <= 0 {
		t.Fatal("modeled uplink time not accounted")
	}
	if !strings.Contains(rep.Render(), "compression: "+spec) {
		t.Fatal("report render lacks the compression line")
	}
}

// TestCodecCapabilityRejection pins the handshake negotiation: a worker not
// advertising a codec the run's compression spec requires is turned away.
func TestCodecCapabilityRejection(t *testing.T) {
	tr := NewLoopback()
	c, err := New(Config{
		Workers: 1, Rounds: 1, Aggregator: "fedavg",
		Compression: "topk:0.1+int8+deflate",
		JoinTimeout: 200 * time.Millisecond,
	}, testModel(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	// The worker speaks int8 and deflate but not topk.
	rc := dialRaw(t, tr, addr, "no-topk", []string{"int8", "deflate"})
	defer rc.conn.Close()
	f := rc.recv()
	if f.Type != msgError {
		t.Fatalf("got message type %d, want error", f.Type)
	}
	msg, err := parseError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "topk") {
		t.Fatalf("rejection message %q does not name the missing codec", msg)
	}
	if _, err := c.Wait(); err == nil {
		t.Fatal("coordinator gathered a fleet from zero codec-capable workers")
	}
}

// holdRoundZero returns the beforeUpdate hook of an honest worker in the
// poison tests and the function that releases it. The honest pair meets the
// quorum of 2 alone, and left to itself can finish both rounds before the raw
// client has dialed; held before round 0's upload until the third joiner has
// its welcome, the poison deterministically lands in round 1.
func holdRoundZero() (hook func(round int) error, release func()) {
	welcomed := make(chan struct{})
	hook = func(round int) error {
		if round == 0 {
			select {
			case <-welcomed:
			case <-time.After(10 * time.Second):
				return errors.New("timed out waiting for the third joiner's welcome")
			}
		}
		return nil
	}
	return hook, func() { close(welcomed) }
}

// TestCompressedPoisonDropsWorker sends a compressed update whose NaN exists
// only after dequantization (the int8 grid is poisoned, the payload bytes are
// finite): the coordinator must decode, validate the decoded tensors, reject
// the update and drop the sender — without stalling the honest fleet.
func TestCompressedPoisonDropsWorker(t *testing.T) {
	const spec = "int8+raw"
	tr := NewLoopback()
	honestJoined := make(chan struct{})
	var joins int
	var joinMu sync.Mutex
	c, err := New(Config{
		Workers: 3, MinWorkers: 2, Rounds: 2, Samples: eqSamples, Seed: 5,
		Aggregator: "fedavg", Optimizer: "sgd", LR: 0.05,
		Compression: spec,
		Logf: func(format string, args ...any) {
			if !strings.Contains(format, "as slot") {
				return
			}
			joinMu.Lock()
			defer joinMu.Unlock()
			joins++
			if joins == 2 {
				close(honestJoined)
			}
		},
	}, testModel(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}

	hold, evilWelcomed := holdRoundZero()
	var wg sync.WaitGroup
	honest := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, honest[i] = RunWorker(tr, addr, workerOptions(fmt.Sprintf("w%d", i), 5, eqSamples, hold))
		}(i)
	}

	select {
	case <-honestJoined:
	case <-time.After(10 * time.Second):
		t.Fatal("honest workers never joined")
	}
	rc := dialRaw(t, tr, addr, "evil", compress.AllCodecs)
	defer rc.conn.Close()
	a, err := expectWelcome(rc.recv())
	if err != nil {
		t.Fatal(err)
	}
	evilWelcomed()
	if a.Compression != "topk:1+int8+raw" {
		t.Fatalf("assigned compression %q", a.Compression)
	}
	if err := rc.conn.Send(ckpt.Frame{Type: msgPull}); err != nil {
		t.Fatal(err)
	}
	round := rc.recv()
	if round.Type != msgRound {
		t.Fatalf("got message type %d, want round", round.Type)
	}
	m, err := parseRound(round.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Right shapes, poisoned values: the NaN poisons the tensor's int8 grid,
	// so every wire byte is finite and only dequantization resurrects it.
	var vecs []*tensor.Tensor
	for _, nt := range m.params {
		v := nt.Tensor.Clone()
		v.Data()[0] = math.NaN()
		vecs = append(vecs, v)
	}
	pspec, err := compress.ParseSpec(a.Compression)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compress.NewCompressor(pspec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := comp.Encode(vecs)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := encodeUpdate(updateMsg{
		round:   m.round,
		samples: eqSamples / a.Workers,
		loss:    0.1,
		codec:   a.Compression,
		blob:    enc.Data,
		state:   ckpt.WorkerState{Index: a.Index, Name: "evil", Opt: ckpt.OptimizerState{Name: "sgd"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.Send(uf); err != nil {
		t.Fatal(err)
	}
	ackF := rc.recv()
	if ackF.Type != msgAck {
		t.Fatalf("got message type %d, want ack", ackF.Type)
	}
	ack, err := parseAck(ackF.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.status != AckRejected {
		t.Fatalf("compressed poison acked %q, want %q", ack.status, AckRejected)
	}
	if _, err := rc.conn.Recv(); err == nil {
		t.Fatal("connection still open after rejection")
	}

	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range honest {
		if werr != nil {
			t.Fatalf("honest worker %d: %v", i, werr)
		}
	}
	for _, p := range c.Global().Params() {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("global model poisoned despite rejection")
			}
		}
	}
	if rep.Rounds[1].Dropouts != 1 {
		t.Fatalf("round 1: %d dropouts, want 1", rep.Rounds[1].Dropouts)
	}
}

// TestCorruptBlobKillsConnection: a syntactically valid update frame whose
// compressed blob is garbage must fail the coordinator-side decode with the
// corruption error and cost the sender its connection.
func TestCorruptBlobKillsConnection(t *testing.T) {
	tr := NewLoopback()
	c, err := New(Config{
		Workers: 1, Rounds: 1, Samples: 8, Seed: 3,
		Aggregator: "fedavg", Compression: "int8+deflate",
		JoinTimeout: time.Second, RoundRetries: -1,
	}, testModel(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, tr, addr, "garbler", compress.AllCodecs)
	defer rc.conn.Close()
	a, err := expectWelcome(rc.recv())
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.Send(ckpt.Frame{Type: msgPull}); err != nil {
		t.Fatal(err)
	}
	if f := rc.recv(); f.Type != msgRound {
		t.Fatalf("got message type %d, want round", f.Type)
	}
	uf, err := encodeUpdate(updateMsg{
		round: 0, samples: 8, loss: 0.5,
		codec: a.Compression,
		blob:  []byte{1, 2, 3, 4, 5, 6, 7, 8},
		state: ckpt.WorkerState{Index: a.Index, Name: "garbler"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.Send(uf); err != nil {
		t.Fatal(err)
	}
	f := rc.recv()
	if f.Type != msgError {
		t.Fatalf("got message type %d, want error", f.Type)
	}
	msg, err := parseError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "corrupt") {
		t.Fatalf("error %q does not report corruption", msg)
	}
	if _, err := rc.conn.Recv(); err == nil {
		t.Fatal("connection still open after corrupt blob")
	}
}

// TestKillAndRejoin drops a worker mid-round — after training, before
// upload — and asserts the round is held below quorum, retried once the
// worker rejoins with its recovered optimizer state, and finally folds with
// the full fleet, leaving weights byte-identical to an undisturbed run.
func TestKillAndRejoin(t *testing.T) {
	tr := NewLoopback()
	c, err := New(Config{
		Workers:    3,
		Rounds:     4,
		Samples:    eqSamples,
		Seed:       7,
		Aggregator: "fedavg",
		Optimizer:  "momentum",
		LR:         0.05,
	}, testModel(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}

	// Survivors hold round 2 open until the victim's second life has been
	// welcomed back, so the rejoin deterministically lands before the final
	// rounds regardless of scheduling.
	rejoined := make(chan struct{})
	var wg sync.WaitGroup
	survivors := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, survivors[i] = RunWorker(tr, addr, workerOptions(fmt.Sprintf("w%d", i), 7, eqSamples, func(round int) error {
				if round == 2 {
					select {
					case <-rejoined:
					case <-time.After(10 * time.Second):
						return errors.New("timed out waiting for the victim to rejoin")
					}
				}
				return nil
			}))
		}(i)
	}

	// First life: the victim trains rounds 0 and 1, then dies before
	// uploading round 1's update.
	boom := errors.New("simulated crash")
	_, err = RunWorker(tr, addr, workerOptions("victim", 7, eqSamples, func(round int) error {
		if round == 1 {
			return boom
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("victim first life returned %v, want the injected crash", err)
	}

	// Second life: rejoin under the same name, recovering durable state.
	// Whether or not the coordinator has seen the first life's connection
	// fail yet, the hello reclaims the slot.
	var once sync.Once
	secondLife := workerOptions("victim", 7, eqSamples, nil)
	secondLife.Logf = func(format string, args ...any) {
		if strings.Contains(format, "recovered optimizer state") {
			once.Do(func() { close(rejoined) })
		}
	}
	res, err := RunWorker(tr, addr, secondLife)
	if err != nil {
		t.Fatalf("victim second life: %v", err)
	}
	if !res.Restored {
		t.Fatalf("rejoined worker did not recover state")
	}
	st := res.Assignment.State
	if st == nil {
		t.Fatalf("rejoin assignment carries no state")
	}
	// The recovery point is the state captured with the round-0 update.
	if st.Rounds != 1 {
		t.Fatalf("recovered state has %d rounds done, want 1", st.Rounds)
	}
	if st.Opt.Name != "momentum" || len(st.Opt.Slots) == 0 {
		t.Fatalf("recovered state lacks momentum slots: %+v", st.Opt)
	}

	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range survivors {
		if werr != nil {
			t.Fatalf("survivor %d: %v", i, werr)
		}
	}
	// Round 1 lost the victim below the quorum of 3, so the fold was held
	// back and the round retried once the victim rejoined: the final tally
	// is full participation plus the recorded dropout.
	r1 := rep.Rounds[1]
	if r1.Participants != 3 || r1.Dropouts != 1 {
		t.Fatalf("round 1: %d participants, %d dropouts, want 3 and 1", r1.Participants, r1.Dropouts)
	}
	// Round 0 had the full fleet.
	if rep.Rounds[0].Participants != 3 {
		t.Fatalf("round 0: %d participants, want 3", rep.Rounds[0].Participants)
	}
	last := rep.Rounds[len(rep.Rounds)-1]
	if last.Participants != 3 {
		t.Fatalf("final round: %d participants, want 3 (victim rejoined)", last.Participants)
	}
	// The coordinator retained durable state for all three slots.
	if got := len(c.WorkerStates()); got != 3 {
		t.Fatalf("coordinator retained %d worker states, want 3", got)
	}

	// The quorum-retry contract: the retried round folded the exact updates
	// an undisturbed round would, so the finished run is byte-identical to
	// an in-process fleet that never saw the crash.
	want := undisturbedWeights(t, []string{"w0", "w1", "victim"}, 4, 7, "")
	assertBitEqual(t, globalWeights(c), want, "crash-and-retry vs undisturbed")
}

// TestRetriedFirstRoundRewindsResidual: a round-zero retry under a lossy
// codec. The survivors of a round zero that lost quorum have encoded once —
// their error-feedback residual is no longer the empty one they started with
// — and must rewind to it, or the retried round encodes update + stale
// residual and the run leaves the fault-free trajectory for good.
func TestRetriedFirstRoundRewindsResidual(t *testing.T) {
	const seed, rounds = uint64(7), 3
	tr := NewLoopback()
	c, err := New(Config{
		Workers: 3, Rounds: rounds, Samples: eqSamples, Seed: seed,
		Aggregator: "fedavg", Optimizer: "momentum", LR: 0.05, Compression: "int8",
	}, testModel(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	survivors := make([]error, 2)
	for i := range survivors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, survivors[i] = RunWorker(tr, addr, workerOptions(fmt.Sprintf("w%d", i), seed, eqSamples, nil))
		}()
	}
	// The victim trains round zero and dies before uploading it; its second
	// life starts, like everyone's first, with no residual.
	boom := errors.New("simulated crash")
	_, err = RunWorker(tr, addr, workerOptions("victim", seed, eqSamples, func(int) error { return boom }))
	if !errors.Is(err, boom) {
		t.Fatalf("victim first life returned %v, want the injected crash", err)
	}
	if _, err := RunWorker(tr, addr, workerOptions("victim", seed, eqSamples, nil)); err != nil {
		t.Fatalf("victim second life: %v", err)
	}
	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range survivors {
		if werr != nil {
			t.Fatalf("survivor %d: %v", i, werr)
		}
	}
	if rep.Rounds[0].Retries == 0 {
		t.Fatal("round 0 was never retried: the scenario did not happen")
	}

	want := undisturbedWeights(t, []string{"w0", "w1", "victim"}, rounds, seed, "int8")
	assertBitEqual(t, globalWeights(c), want, "retried round zero vs undisturbed")
}

// rawClient is a hand-driven protocol client for adversarial tests.
type rawClient struct {
	t    *testing.T
	conn Conn
}

func dialRaw(t *testing.T, tr Transport, addr, name string, codecs []string) *rawClient {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(encodeHello(hello{
		version: ProtocolVersion,
		name:    name,
		device:  "rogue",
		codecs:  codecs,
	})); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: conn}
}

func (rc *rawClient) recv() ckpt.Frame {
	rc.t.Helper()
	f, err := rc.conn.Recv()
	if err != nil {
		rc.t.Fatal(err)
	}
	return f
}

// TestPoisonedUpdateDropsWorker sends a NaN-poisoned update from a raw
// client and asserts the coordinator rejects it, drops the worker, and
// completes the run with the honest workers — the quorum of 2 is still met
// by the survivors, so rejection never stalls the round.
func TestPoisonedUpdateDropsWorker(t *testing.T) {
	tr := NewLoopback()
	// Counting the join log lines lets the test admit the evil client only
	// after both honest workers hold their slots, making it deterministically
	// the third joiner: the run starts at the quorum of 2, and the poison
	// lands in round 1.
	honestJoined := make(chan struct{})
	var joins int
	var joinMu sync.Mutex
	c, err := New(Config{
		Workers: 3, MinWorkers: 2, Rounds: 2, Samples: eqSamples, Seed: 5,
		Aggregator: "fedavg", Optimizer: "sgd", LR: 0.05,
		Logf: func(format string, args ...any) {
			if !strings.Contains(format, "as slot") {
				return
			}
			joinMu.Lock()
			defer joinMu.Unlock()
			joins++
			if joins == 2 {
				close(honestJoined)
			}
		},
	}, testModel(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}

	hold, evilWelcomed := holdRoundZero()
	var wg sync.WaitGroup
	honest := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, honest[i] = RunWorker(tr, addr, workerOptions(fmt.Sprintf("w%d", i), 5, eqSamples, hold))
		}(i)
	}

	select {
	case <-honestJoined:
	case <-time.After(10 * time.Second):
		t.Fatalf("honest workers never joined")
	}
	rc := dialRaw(t, tr, addr, "evil", compress.AllCodecs)
	defer rc.conn.Close()
	welcome := rc.recv()
	a, err := expectWelcome(welcome)
	if err != nil {
		t.Fatal(err)
	}
	evilWelcomed()
	if err := rc.conn.Send(ckpt.Frame{Type: msgPull}); err != nil {
		t.Fatal(err)
	}
	round := rc.recv()
	if round.Type != msgRound {
		t.Fatalf("got message type %d, want round", round.Type)
	}
	m, err := parseRound(round.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Right shapes, poisoned values.
	var vecs []*tensor.Tensor
	for _, nt := range m.params {
		v := nt.Tensor.Clone()
		v.Data()[0] = math.NaN()
		vecs = append(vecs, v)
	}
	uf, err := encodeUpdate(updateMsg{
		round:   m.round,
		samples: eqSamples / a.Workers,
		loss:    0.1,
		vecs:    vecs,
		state:   ckpt.WorkerState{Index: a.Index, Name: "evil", Opt: ckpt.OptimizerState{Name: "sgd"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.Send(uf); err != nil {
		t.Fatal(err)
	}
	ackF := rc.recv()
	if ackF.Type != msgAck {
		t.Fatalf("got message type %d, want ack", ackF.Type)
	}
	ack, err := parseAck(ackF.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.status != AckRejected {
		t.Fatalf("poisoned update acked %q, want %q", ack.status, AckRejected)
	}
	// The coordinator hangs up on a dropped worker.
	if _, err := rc.conn.Recv(); err == nil {
		t.Fatalf("connection still open after rejection")
	}

	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range honest {
		if werr != nil {
			t.Fatalf("honest worker %d: %v", i, werr)
		}
	}
	// Round 0 ran with just the honest pair (evil had not joined yet); the
	// poison landed in round 1 and cost evil its slot without stalling the
	// fold.
	if rep.Rounds[0].Participants != 2 || rep.Rounds[0].Dropouts != 0 {
		t.Fatalf("round 0: %d participants, %d dropouts, want 2 and 0",
			rep.Rounds[0].Participants, rep.Rounds[0].Dropouts)
	}
	if rep.Rounds[1].Participants != 2 || rep.Rounds[1].Dropouts != 1 {
		t.Fatalf("round 1: %d participants, %d dropouts, want 2 and 1",
			rep.Rounds[1].Participants, rep.Rounds[1].Dropouts)
	}
	if rep.FinalLoss == 0 || math.IsNaN(rep.FinalLoss) {
		t.Fatalf("final loss %v after poisoned round", rep.FinalLoss)
	}
	for _, p := range c.Global().Params() {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("global model poisoned despite rejection")
			}
		}
	}
}
