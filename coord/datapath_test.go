package coord

// Tests of the round data path's buffer discipline: nothing parsed from a
// received frame may outlive the connection's receive buffer, the frame
// reader must agree with the one it replaced on every input, a failed round
// must still leave its span, and a round must stay within its allocation
// budget.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/obs"
)

// poison wraps a transport so that every Recv first overwrites the payload
// the same connection returned last time with 0xA5 — what the connection's
// own buffer reuse does to it sooner or later. Anything a parser kept from
// that payload without copying turns to garbage at once.
type poison struct {
	Transport
	bytes *atomic.Int64 // payload bytes destroyed so far, on every connection
}

func (p poison) Listen(addr string) (Listener, error) {
	l, err := p.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return poisonListener{l, p.bytes}, nil
}

func (p poison) Dial(addr string) (Conn, error) {
	c, err := p.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &poisonConn{Conn: c, bytes: p.bytes}, nil
}

type poisonListener struct {
	Listener
	bytes *atomic.Int64
}

func (l poisonListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &poisonConn{Conn: c, bytes: l.bytes}, nil
}

type poisonConn struct {
	Conn
	bytes *atomic.Int64
	last  []byte // guarded by the one-reader-at-a-time rule of Conn.Recv
}

func (c *poisonConn) Recv() (ckpt.Frame, error) {
	for i := range c.last {
		c.last[i] = 0xA5
	}
	c.bytes.Add(int64(len(c.last)))
	f, err := c.Conn.Recv()
	c.last = f.Payload
	return f, err
}

// pathRun is everything of a run the data path could corrupt.
type pathRun struct {
	weights  []*tensor.Tensor
	lossBits []uint64
	states   []ckpt.WorkerState // from the last checkpoint in the StateDir
}

func reportLossBits(rep *fleet.Report) []uint64 {
	bits := make([]uint64, len(rep.Rounds))
	for i, rs := range rep.Rounds {
		bits[i] = math.Float64bits(rs.Loss)
	}
	return bits
}

// runPath runs a 3-worker, 4-round durable fleet over tr.
func runPath(t *testing.T, tr Transport, aggName, compression string) pathRun {
	t.Helper()
	const rounds = 4
	stateDir := filepath.Join(t.TempDir(), "state")
	c, err := New(Config{
		Workers: eqWorkers, Rounds: rounds, Samples: eqSamples, Seed: eqSeed,
		Aggregator: aggName, Optimizer: "momentum", LR: 0.05,
		Compression: compression, StateDir: stateDir,
		Liveness: 1500 * time.Millisecond, // workers beat every 50 ms: heartbeats cross the wire too
	}, testModel(eqSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	// Each worker joins once the one before holds its slot, so that a slot's
	// checkpointed state carries the same name in every run.
	var wg sync.WaitGroup
	errs := make([]error, eqWorkers)
	for i := range errs {
		opts := workerOptions(fmt.Sprintf("w%d", i), eqSeed, eqSamples, nil)
		assigned := make(chan struct{})
		var once sync.Once
		dataset := opts.Dataset
		opts.Dataset = func(a Assignment) (trainer.Dataset, error) {
			once.Do(func() { close(assigned) })
			return dataset(a)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunWorker(tr, addr, opts)
			once.Do(func() { close(assigned) })
		}()
		<-assigned
	}
	wg.Wait()
	rep, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	var run pathRun
	for _, p := range c.Global().Params() {
		run.weights = append(run.weights, p.Value.Clone())
	}
	run.lossBits = reportLossBits(rep)
	d, err := ckpt.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if s.Round != rounds {
		t.Fatalf("last checkpoint is of round %d, want %d", s.Round, rounds)
	}
	run.states = s.Workers
	return run
}

// TestNothingOutlivesReceiveBuffer pins Conn.Recv's contract from the
// consumers' side: with every received payload destroyed the moment the next
// Recv starts, a durable run with telemetry shipping on — hello, welcome,
// round directives, compressed and raw updates, worker states, heartbeats —
// ends with the weights, per-round losses and checkpointed worker states of
// an undisturbed run and of the in-process engine.
func TestNothingOutlivesReceiveBuffer(t *testing.T) {
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		t.Fatal("observability enabled at test entry")
	}
	obs.SetDefault(obs.NewRegistry())
	obs.SetDefaultTracer(obs.NewTracer(0))
	defer obs.SetDefault(nil)
	defer obs.SetDefaultTracer(nil)

	for _, cfg := range []struct{ agg, compression string }{
		{"fedavg", "int8+deflate"},
		{"allreduce", ""},
	} {
		t.Run(cfg.agg, func(t *testing.T) {
			opt := func() trainer.Optimizer {
				o, err := trainer.NewOptimizer("momentum", 0.05)
				if err != nil {
					panic(err)
				}
				return o
			}
			agg, err := fleet.NewAggregator(cfg.agg, opt())
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]fleet.WorkerSpec, eqWorkers)
			for i := range specs {
				specs[i].Name = fmt.Sprintf("w%d", i)
			}
			ref, err := fleet.New(fleet.Config{
				Workers: specs, Rounds: 4, Seed: eqSeed, Aggregator: agg, Optimizer: opt,
				Compression: cfg.compression,
			}, testModel(eqSeed), testDataset(eqSamples, eqSeed))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			refRep, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			var refWeights []*tensor.Tensor
			for _, p := range ref.Global().Params() {
				refWeights = append(refWeights, p.Value.Clone())
			}

			for _, tr := range []struct {
				name string
				make func() Transport
			}{
				{"loopback", func() Transport { return NewLoopback() }},
				{"tcp", func() Transport { return &TCP{} }},
			} {
				plain := runPath(t, tr.make(), cfg.agg, cfg.compression)
				var destroyed atomic.Int64
				poisoned := runPath(t, poison{tr.make(), &destroyed}, cfg.agg, cfg.compression)
				// Every directive a worker received is destroyed at its next
				// Recv at the latest: 4 rounds x 3 workers of them.
				if min := 4 * eqWorkers * nn.ParamBytes(ref.Global().Stages); destroyed.Load() < min {
					t.Fatalf("%s: only %d payload bytes were poisoned, the broadcasts alone are %d", tr.name, destroyed.Load(), min)
				}
				assertBitEqual(t, poisoned.weights, plain.weights, tr.name+": poisoned vs plain")
				assertBitEqual(t, poisoned.weights, refWeights, tr.name+": poisoned vs in-process")
				if !reflect.DeepEqual(poisoned.lossBits, plain.lossBits) ||
					!reflect.DeepEqual(poisoned.lossBits, reportLossBits(refRep)) {
					t.Fatalf("%s: per-round losses differ: poisoned %x, plain %x, in-process %x",
						tr.name, poisoned.lossBits, plain.lossBits, reportLossBits(refRep))
				}
				if len(poisoned.states) != eqWorkers {
					t.Fatalf("%s: checkpoint holds %d worker states", tr.name, len(poisoned.states))
				}
				for i := range poisoned.states {
					a, b := ckpt.EncodeWorkerState(&poisoned.states[i]), ckpt.EncodeWorkerState(&plain.states[i])
					if !bytes.Equal(a, b) {
						t.Fatalf("%s: worker state %d differs between the poisoned and the plain run", tr.name, i)
					}
				}
			}
		})
	}
}

// refReadFrame is ckpt.ReadFrame as it stood before the FrameReader: the
// header checks, a payload read through a growing bytes.Buffer, the CRC, and
// a fresh flate reader. The differential fuzz target holds the reader that
// replaced it to this one's every answer.
func refReadFrame(r io.Reader, maxBytes int64) (ckpt.Frame, int, error) {
	corruptf := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ckpt.ErrCorrupt}, args...)...)
	}
	var fh [ckpt.FrameHeaderBytes]byte
	if _, err := io.ReadFull(r, fh[:]); err != nil {
		return ckpt.Frame{}, 0, corruptf("reading frame header: %v", err)
	}
	typ := binary.LittleEndian.Uint32(fh[0:])
	style := binary.LittleEndian.Uint32(fh[4:])
	encLen := binary.LittleEndian.Uint64(fh[8:])
	rawLen := binary.LittleEndian.Uint64(fh[16:])
	crc := binary.LittleEndian.Uint32(fh[24:])
	if style != ckpt.StyleRaw && style != ckpt.StyleDeflate {
		return ckpt.Frame{}, 0, corruptf("unknown style %d", style)
	}
	if encLen > uint64(maxBytes) || rawLen > uint64(maxBytes) {
		return ckpt.Frame{}, 0, corruptf("implausible length")
	}
	if style == ckpt.StyleRaw && encLen != rawLen {
		return ckpt.Frame{}, 0, corruptf("raw style with mismatched lengths")
	}
	var b bytes.Buffer
	b.Grow(int(min(encLen, 1<<20)))
	if _, err := io.CopyN(&b, r, int64(encLen)); err != nil {
		return ckpt.Frame{}, 0, corruptf("reading frame payload: %v", err)
	}
	n := ckpt.FrameHeaderBytes + int(encLen)
	if crc32.ChecksumIEEE(b.Bytes()) != crc {
		return ckpt.Frame{}, n, corruptf("CRC mismatch")
	}
	if style == ckpt.StyleRaw {
		return ckpt.Frame{Type: typ, Payload: b.Bytes()}, n, nil
	}
	var raw bytes.Buffer
	m, err := io.Copy(&raw, io.LimitReader(flate.NewReader(bytes.NewReader(b.Bytes())), int64(rawLen)+1))
	if err != nil || uint64(m) != rawLen {
		return ckpt.Frame{}, n, corruptf("decompresses to %d bytes, header says %d (%v)", m, rawLen, err)
	}
	return ckpt.Frame{Type: typ, Payload: raw.Bytes()}, n, nil
}

// FuzzFrameReader is the differential target for the receive path: on any
// byte stream, a FrameReader reading frame after frame — and DecodeFrame on
// the same bytes in memory — must give the type, payload, consumed count and
// error class (nil, or wrapping ckpt.ErrCorrupt) refReadFrame gives. The seed
// corpus is FuzzDecodeMessage's, framed raw and DEFLATE, one and two frames
// to a stream.
func FuzzFrameReader(f *testing.F) {
	type msg struct {
		typ     uint32
		payload []byte
	}
	var msgs []msg
	for _, s := range protoSamples() {
		msgs = append(msgs, msg{s.typ, s.payload})
	}
	msgs = append(msgs,
		msg{99, []byte{1, 2, 3}},
		msg{msgUpdate, nil},
		msg{16, []byte("0000\x00\x00\x00\x00\x00\x00\x00\x000000000000000000")}, // testdata/fuzz/FuzzDecodeMessage
	)
	for i, m := range msgs {
		for _, style := range []uint32{ckpt.StyleRaw, ckpt.StyleDeflate} {
			var one bytes.Buffer
			if _, err := ckpt.WriteFrame(&one, ckpt.Frame{Type: m.typ, Payload: m.payload}, style); err != nil {
				f.Fatal(err)
			}
			f.Add(one.Bytes())
			next := msgs[(i+1)%len(msgs)]
			two := append([]byte(nil), one.Bytes()...)
			var second bytes.Buffer
			if _, err := ckpt.WriteFrame(&second, ckpt.Frame{Type: next.typ, Payload: next.payload}, style); err != nil {
				f.Fatal(err)
			}
			f.Add(append(two, second.Bytes()...))
		}
	}
	// Two real update blobs: a compressed update is one DEFLATE frame, and
	// these are the streams the inflater decodes every round.
	rng := tensor.NewRNG(29)
	for _, s := range []string{"int8+deflate", "topk:0.05+int8+deflate"} {
		spec, err := compress.ParseSpec(s)
		if err != nil {
			f.Fatal(err)
		}
		c, err := compress.NewCompressor(spec)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := c.Encode([]*tensor.Tensor{randTensor(rng, 24, 16), randTensor(rng, 16)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc.Data)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		const bound = 1 << 20
		agree := func(what string, f, want ckpt.Frame, n, wantN int, err, wantErr error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ckpt.ErrCorrupt)) {
				t.Fatalf("%s: error %v, reference %v", what, err, wantErr)
			}
			if n != wantN || f.Type != want.Type || !bytes.Equal(f.Payload, want.Payload) {
				t.Fatalf("%s: type %d, %d payload bytes, consumed %d; reference type %d, %d bytes, consumed %d",
					what, f.Type, len(f.Payload), n, want.Type, len(want.Payload), wantN)
			}
		}
		ref := bytes.NewReader(stream)
		fr := ckpt.NewFrameReader(bytes.NewReader(stream), bound)
		rest := stream
		for frame := 0; frame < 3; frame++ {
			want, wantN, wantErr := refReadFrame(ref, bound)
			got, n, err := fr.Next()
			agree(fmt.Sprintf("FrameReader frame %d", frame), got, want, n, wantN, err, wantErr)
			got, n, err = ckpt.DecodeFrame(rest, bound)
			agree(fmt.Sprintf("DecodeFrame frame %d", frame), got, want, n, wantN, err, wantErr)
			if wantErr != nil {
				return
			}
			rest = rest[n:]
		}
	})
}

// TestFailedRoundLeavesSpan: the round that fails is the one an operator
// looks for in /trace, so it must have its span, with the error in the
// detail — and the rounds that succeeded must have theirs as before.
func TestFailedRoundLeavesSpan(t *testing.T) {
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		t.Fatal("observability enabled at test entry")
	}
	tracer := obs.NewTracer(0)
	obs.SetDefaultTracer(tracer)
	defer obs.SetDefaultTracer(nil)

	// Two workers and a quorum of two; from round 1 on w1 never uploads, so
	// each attempt at round 1 runs into the deadline one update short and the
	// retry budget runs out.
	c, err := New(Config{
		Workers: 2, Rounds: 3, Samples: eqSamples, Seed: eqSeed,
		RoundRetries: 1, RoundDeadline: 500 * time.Millisecond,
	}, testModel(eqSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := NewLoopback()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		opts := workerOptions(fmt.Sprintf("w%d", i), eqSeed, eqSamples, nil)
		opts.Retries = -1
		if i == 1 {
			opts.beforeUpdate = func(round int) error {
				if round == 1 {
					<-release
				}
				return nil
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(tr, addr, opts) // how a worker of a failed run ends is not the point
		}()
	}
	_, err = c.Wait()
	close(release)
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "round 1: quorum of 2 workers not met") {
		t.Fatalf("run returned %v, want round 1 to fail its quorum", err)
	}
	rounds := map[int]obs.Event{}
	for _, e := range tracer.Events() {
		if e.Name == "round" && !e.Remote {
			if _, dup := rounds[e.Round]; dup {
				t.Fatalf("round %d has two spans", e.Round)
			}
			rounds[e.Round] = e
		}
	}
	if e, ok := rounds[0]; !ok || e.Detail != "" || e.Dur <= 0 {
		t.Fatalf("successful round 0: span %+v (present %v), want one with no detail", e, ok)
	}
	e, ok := rounds[1]
	if !ok {
		t.Fatalf("failed round 1 left no span; spans: %+v", rounds)
	}
	if !strings.Contains(e.Detail, err.Error()) {
		t.Fatalf("failed round's span detail %q does not name the error %q", e.Detail, err)
	}
	if _, ok := rounds[2]; ok {
		t.Fatal("round 2 never ran but has a span")
	}
}

// benchModel is the repository benchmark's fleet model (fleet_tcp_int8):
// 5.6 MB of fp64 parameters.
func benchModel(seed uint64) func() (*chain.Chain, error) {
	return func() (*chain.Chain, error) {
		net, err := resnet.BuildSmall(resnet.SmallConfig{
			Variant: resnet.ResNet18, InputChannels: 1, NumClasses: vision.NumClasses,
			BaseWidth: 16, Stages: 4, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return chain.FromSequential(net), nil
	}
}

func benchDataset(n int, seed uint64) *trainer.SliceDataset {
	rng := tensor.NewRNG(seed + 1)
	var samples []trainer.Batch
	for i := 0; i < n; i++ {
		c := vision.Class(i % vision.NumClasses)
		samples = append(samples, trainer.Batch{Images: vision.Sample(rng, c, 0.5, 12), Labels: []int{int(c)}})
	}
	return trainer.NewSliceDataset(samples)
}

// TestRoundAllocBudget keeps the round data path from silently growing back:
// a 2-worker loopback int8+deflate run of the benchmark's model must allocate
// no more than 9.6 model sizes per round, everything included — coordinator,
// both workers' training, the codec, the frames. It allocated about 32 with
// every frame read through a growing buffer and decoded into a second model,
// and 10.5–10.6 while every FedAvg update was a clone of the worker's
// replica; it allocates 8.5–8.6 now, and the budget is that plus one model.
// Under the race detector sync.Pool drops pooled buffers at random (some 14
// model sizes a round), so there the budget stays at the old 20.
func TestRoundAllocBudget(t *testing.T) {
	const (
		rounds  = 6
		samples = 4
		seed    = uint64(1)
	)
	budget := 9.6
	if raceDetector {
		budget = 20
	}
	c, err := New(Config{
		Workers: 2, Rounds: rounds, Samples: samples, Seed: seed,
		Aggregator: "fedavg", Compression: "int8+deflate",
	}, benchModel(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	modelBytes := nn.ParamBytes(c.Global().Stages)
	tr := NewLoopback()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	// Measure from the moment both replicas exist: building them is set-up.
	var built sync.WaitGroup
	built.Add(2)
	var before, after runtime.MemStats
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			_, errs[i] = RunWorker(tr, addr, WorkerOptions{
				Spec:    fleet.WorkerSpec{Name: fmt.Sprintf("w%d", i)},
				Dataset: func(a Assignment) (trainer.Dataset, error) { return benchDataset(a.Samples, a.Seed), nil },
				Model: func(a Assignment) (*chain.Chain, error) {
					defer once.Do(built.Done)
					return benchModel(a.Seed)()
				},
			})
			once.Do(built.Done)
		}()
	}
	built.Wait()
	runtime.ReadMemStats(&before)
	_, err = c.Wait()
	runtime.ReadMemStats(&after)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("%.1f MB allocated per round, %.1f x the %.1f MB model", perRound/1e6, perRound/float64(modelBytes), float64(modelBytes)/1e6)
	if perRound > budget*float64(modelBytes) {
		t.Fatalf("a round allocates %.1f MB, %.1f x the model: over the budget of %.1f x", perRound/1e6, perRound/float64(modelBytes), budget)
	}
}
