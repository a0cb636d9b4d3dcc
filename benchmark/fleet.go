package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/coord"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/resnet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
	"github.com/edgeml/edgetrain/obs"
)

// fleet_tcp_int8 is communication-bound on purpose: a 5.6 MB model, two
// samples per worker, so broadcast, update encoding and decoding, validation,
// the fold and the coordinator's background checkpoint take about half the
// round and local training no longer dominates — the mirror image of
// node_storeall. Two workers, each on its own TCP connection, is all the
// 2-core reference box can drive without the load generator queueing on
// itself.
const (
	fleetWorkers     = 2
	fleetSamples     = 4
	fleetBaseWidth   = 16
	fleetInput       = 12 // frame side: at 16 local training is 60% of the round, at 12 about half
	fleetCompression = "int8+deflate"
	fleetPilotRounds = 5  // per set-up repetition: enough to time a round
	fleetVerify      = 20 // rounds replayed in process for bit-identity
	fleetMaxRounds   = 5000
)

var fleetDevices = []string{"waggle", "rpi"}

func fleetModel(seed uint64) func() (*chain.Chain, error) {
	return func() (*chain.Chain, error) {
		net, err := resnet.BuildSmall(resnet.SmallConfig{
			Variant: resnet.ResNet18, InputChannels: 1, NumClasses: vision.NumClasses,
			BaseWidth: fleetBaseWidth, Stages: 4, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return chain.FromSequential(net), nil
	}
}

// fleetDataset is fleetdemo.Dataset at the workload's frame size: each
// worker's contiguous shard carries its own viewpoint skew, classes cycle
// within a shard.
func fleetDataset(nodes, samples int, seed uint64) *trainer.SliceDataset {
	rng := tensor.NewRNG(seed + 1)
	var ds []trainer.Batch
	for i := 0; i < nodes; i++ {
		vp := 0.2 + 0.7*float64(i)/float64(max(nodes-1, 1))
		lo, hi := trainer.ShardRange(samples, nodes, i)
		for j := 0; j < hi-lo; j++ {
			c := vision.Class(j % vision.NumClasses)
			ds = append(ds, trainer.Batch{Images: vision.Sample(rng, c, vp, fleetInput), Labels: []int{int(c)}})
		}
	}
	return trainer.NewSliceDataset(ds)
}

func fleetSpecs() ([]fleet.WorkerSpec, error) {
	specs := make([]fleet.WorkerSpec, fleetWorkers)
	for i, name := range fleetDevices {
		d, err := device.ByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = fleet.WorkerSpec{Name: fmt.Sprintf("w%d", i), Device: d}
	}
	return specs, nil
}

// fleetSession is one coordinator with its two workers joined over TCP, and
// after wait the outcome of its run.
type fleetSession struct {
	c        *coord.Coordinator
	stateDir string
	begin    time.Time // set-up began
	ready    time.Time // both workers hold their replica: round zero can run
	end      time.Time // Coordinator.Wait returned
	report   *fleet.Report
	workers  sync.WaitGroup
	results  [fleetWorkers]*coord.WorkerResult
	errs     [fleetWorkers]error
}

func (s *fleetSession) setupSeconds() float64 { return s.ready.Sub(s.begin).Seconds() }

// startFleet builds the coordinator, listens on a free loopback port and
// joins the two workers, the second once the first holds its slot so the
// slot order never depends on scheduling. It returns when both workers have
// built their model replica. The entry points are the ones cmd/edgecoord and
// cmd/edgeworker wrap.
func startFleet(seed uint64, rounds int, stateDir string) (*fleetSession, error) {
	s := &fleetSession{begin: time.Now(), stateDir: stateDir}
	specs, err := fleetSpecs()
	if err != nil {
		return nil, err
	}
	s.c, err = coord.New(coord.Config{
		Workers: fleetWorkers, Rounds: rounds, Samples: fleetSamples, Seed: seed,
		Aggregator: "fedavg", Compression: fleetCompression, StateDir: stateDir,
	}, fleetModel(seed))
	if err != nil {
		return nil, err
	}
	addr, err := s.c.Start(&coord.TCP{}, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := range specs {
		assigned, built := make(chan struct{}), make(chan struct{})
		var onceA, onceB sync.Once
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.results[i], s.errs[i] = coord.RunWorker(&coord.TCP{}, addr, coord.WorkerOptions{
				Spec: specs[i],
				Dataset: func(a coord.Assignment) (trainer.Dataset, error) {
					onceA.Do(func() { close(assigned) })
					return fleetDataset(a.Workers, a.Samples, a.Seed), nil
				},
				Model: func(a coord.Assignment) (*chain.Chain, error) {
					defer onceB.Do(func() { close(built) })
					return fleetModel(a.Seed)()
				},
			})
			// A worker that failed before building must not leave set-up waiting.
			onceA.Do(func() { close(assigned) })
			onceB.Do(func() { close(built) })
		}()
		<-assigned
		defer func() { <-built }()
	}
	return s, nil
}

// wait blocks until the run completes and both workers have returned.
func (s *fleetSession) wait() error {
	var err error
	s.report, err = s.c.Wait()
	s.end = time.Now()
	s.workers.Wait()
	s.c.Close()
	for _, werr := range s.errs {
		if err == nil && werr != nil {
			err = werr
		}
	}
	return err
}

// runFleetSession sets a fleet up in a fresh state directory and runs it to
// completion.
func runFleetSession(seed uint64, rounds int, root string) (*fleetSession, error) {
	dir, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return nil, err
	}
	s, err := startFleet(seed, rounds, filepath.Join(dir, "state"))
	if err != nil {
		return nil, err
	}
	s.ready = time.Now()
	return s, s.wait()
}

// inProcess runs the same configuration through fleet.Run, the
// transport-free engine cmd/fleettrainer wraps.
func inProcess(seed uint64, rounds int) (*fleet.Report, error) {
	specs, err := fleetSpecs()
	if err != nil {
		return nil, err
	}
	f, err := fleet.New(fleet.Config{Workers: specs, Rounds: rounds, Seed: seed, Compression: fleetCompression},
		fleetModel(seed), fleetDataset(fleetWorkers, fleetSamples, seed))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Run()
}

// byteRounds is how many leading rounds the exact byte counts cover. Encoded
// update sizes differ from round to round, so a count over however many
// rounds fit the time budget would not repeat; one over the same rounds does.
const byteRounds = 10

func firstRoundsBytes(rep *fleet.Report) (up, down int64) {
	for _, rs := range rep.Rounds[:min(len(rep.Rounds), byteRounds)] {
		up += rs.UplinkBytes
		down += rs.DownlinkBytes
	}
	return up, down
}

func roundMs(rep *fleet.Report, from int) []float64 {
	var out []float64
	for _, rs := range rep.Rounds[from:] {
		out = append(out, ms(rs.WallClock))
	}
	return out
}

func roundLossBits(rep *fleet.Report) []uint64 {
	out := make([]uint64, len(rep.Rounds))
	for i, rs := range rep.Rounds {
		out[i] = math.Float64bits(rs.Loss)
	}
	return out
}

// runFleet runs the fleet workload, measured or traced.
func runFleet(o runOptions) (*runResult, error) {
	res := newRunResult(o)

	// Set-up repetitions double as pilots: each runs a few rounds, which
	// times set-up again and tells how many rounds fill the time budget (the
	// coordinator takes its round count up front). A session's first rounds
	// are its slowest, so the fastest pilot round is the estimate of the
	// steady round.
	var setups []float64
	fastest := math.Inf(1)
	pilotRounds := fleetPilotRounds
	if o.smoke {
		pilotRounds = 2
	}
	for i := 0; i < max(o.setups-1, 1); i++ {
		s, err := runFleetSession(o.seed, pilotRounds, o.root)
		if err != nil {
			return nil, fmt.Errorf("pilot fleet: %w", err)
		}
		setups = append(setups, s.setupSeconds())
		for _, v := range roundMs(s.report, 1) { // round zero waits for the replicas
			fastest = math.Min(fastest, v)
		}
	}
	budget := o.seconds
	if o.traced {
		// A quarter each for an untraced and a traced session of equal
		// length, the rest for the replays below.
		budget /= 4
	}
	rounds := int(math.Ceil(budget * 1000 / fastest))
	rounds = min(max(rounds, o.minOps), fleetMaxRounds)

	var untracedMs []float64
	if o.traced {
		s, err := runFleetSession(o.seed, rounds, o.root)
		if err != nil {
			return nil, fmt.Errorf("untraced fleet: %w", err)
		}
		untracedMs = roundMs(s.report, 1)
	}

	var rec *recorder
	var tracer *obs.Tracer
	var before, after runtime.MemStats
	if o.traced {
		// The coordinator resolves its metric handles when it is built, so
		// the registry and tracer go in first. The ring holds every span of
		// the run: about a dozen per round.
		rec = newRecorder()
		tracer = obs.NewTracer(32 * fleetMaxRounds)
		obs.SetDefault(obs.NewRegistry())
		obs.SetDefaultTracer(tracer)
		defer obs.SetDefault(nil)
		defer obs.SetDefaultTracer(nil)
		runtime.ReadMemStats(&before)
	}
	cpu0 := cpuSeconds()
	s, err := runFleetSession(o.seed, rounds, o.root)
	if err != nil {
		return nil, err
	}
	cpu := cpuSeconds() - cpu0
	setups = append(setups, s.setupSeconds())
	rep := s.report

	opMs := roundMs(rep, 0)
	for _, rs := range rep.Rounds {
		for _, ws := range rs.Workers {
			res.Samples += ws.Samples
		}
		if rs.Retries > 0 || rs.Rejected > 0 || rs.Dropouts > 0 || rs.Participants != fleetWorkers {
			res.Failed++
		}
	}
	res.Attempted = len(rep.Rounds)
	res.LossBits = roundLossBits(rep)
	res.ParamHash = paramHash(s.c.Global())
	up, down := firstRoundsBytes(rep)
	res.Counts = map[string]int64{"uplink_bytes_first_rounds": up, "downlink_bytes_first_rounds": down}
	res.check(lossFell(res.LossBits, 8, o.smoke))
	res.check(checkResult{"every_worker_contributed_every_round",
		s.results[0] != nil && s.results[1] != nil && s.results[0].Rounds == rounds && s.results[1].Rounds == rounds,
		fmt.Sprintf("%d rounds", rounds)})

	if !o.traced {
		// CPU covers the session including its set-up; the set-up share is
		// the same on every run and small beside a hundred rounds.
		res.finishMeasured(opMs, res.Samples, s.end.Sub(s.ready), cpu, setups, o.beyond)
	} else {
		runtime.ReadMemStats(&after)
		res.TracedOpMs = median(opMs)
		rec.fromEvents(tracer.Events())
		m := res.Metrics
		coordMetrics(m, rec.spans, s)
		m.set("trainer.alloc_mb_per_step", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(rounds))
		m.set("trainer.gc_cycles_per_100_steps", 100*float64(after.NumGC-before.NumGC)/float64(rounds))
		m.set("obs.trace_overhead_ratio", median(opMs[1:])/median(untracedMs))
	}

	// Check 4: the TCP run's per-round losses are the in-process engine's,
	// bit for bit. In the traced run the same rounds give the
	// transport-free round time.
	n := min(o.verifyOps, len(res.LossBits))
	ref, err := inProcess(o.seed, n)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	res.check(checkResult{"tcp_loss_bits_match_in_process", equalPrefix(res.LossBits, roundLossBits(ref), n),
		fmt.Sprintf("first %d rounds", n)})

	if o.traced {
		m := res.Metrics
		inproc := median(roundMs(ref, 0))
		m.set("fleet.inproc_round_ms_p50", inproc)
		m.set("coord.transport_overhead_ms_per_round", median(opMs)-inproc)
		if err := replayRounds(m, rec, o.seed, min(n, 10)); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		src, err := ckpt.Open(s.stateDir)
		if err != nil {
			return nil, err
		}
		if err := ckptMetrics(m, src, o.root); err != nil {
			return nil, err
		}
		kernelMetrics(m, fleetBaseWidth, fleetInput, fleetSamples/fleetWorkers)
		if o.traceDir != "" {
			if err := writeChromeTrace(filepath.Join(o.traceDir, o.workload+".trace.json"), rec.spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// coordMetrics reads the spans the program already records around its round
// phases — round, broadcast, local-train, decode, validate, fold,
// checkpoint-save — and the report's exact byte and fault counts. A phase
// that runs once per worker is charged at its slowest worker: that one
// blocks the round.
func coordMetrics(m metricSet, spans []span, s *fleetSession) {
	rep, rounds := s.report, len(s.report.Rounds)
	phase := func(name string) []float64 {
		slowest := make([]float64, rounds)
		for _, sp := range spans {
			if sp.Name == name && sp.Op >= 0 && sp.Op < rounds {
				slowest[sp.Op] = math.Max(slowest[sp.Op], ms(sp.Dur))
			}
		}
		return slowest
	}
	round := phase("round")
	share := func(name string) float64 {
		p := phase(name)
		shares := make([]float64, 0, rounds)
		for i := range p {
			if round[i] > 0 {
				shares = append(shares, p[i]/round[i])
			}
		}
		return median(shares)
	}
	m.set("coord.broadcast_share", share("broadcast"))
	m.set("coord.local_train_share", share("local-train"))
	m.set("coord.decode_share", share("decode"))
	m.set("coord.validate_share", share("validate"))
	m.set("coord.fold_share", share("fold"))
	m.set("coord.ckpt_save_ms_per_round", median(phase("checkpoint-save")))
	m.set("fleet.local_train_ms_per_round", median(phase("local-train")))

	n := float64(len(rep.Rounds))
	up, down := firstRoundsBytes(rep)
	first := float64(min(len(rep.Rounds), byteRounds))
	m.set("coord.uplink_bytes_per_round", float64(up)/first)
	m.set("coord.downlink_bytes_per_round", float64(down)/first)
	var wire int64
	for _, r := range s.results {
		wire += r.WireSent + r.WireReceived
	}
	m.set("coord.wire_bytes_per_round", float64(wire)/n)
	var retries, dropouts, rejected int
	for _, rs := range rep.Rounds {
		retries += rs.Retries
		dropouts += rs.Dropouts
		rejected += rs.Rejected
	}
	m.set("coord.retries_total", float64(retries))
	m.set("coord.dropouts_total", float64(dropouts))
	m.set("coord.rejected_total", float64(rejected))
}

// replayRounds walks rounds from outside the engines, one public call per
// layer boundary with a span around each: fleet.NewWorker and
// Aggregator.Local, Compressor.Encode, compress.Decode, fleet.ValidateUpdate,
// Aggregator.Fold; then echoes an update-sized frame over coord.TCP.
func replayRounds(m metricSet, rec *recorder, seed uint64, rounds int) error {
	specs, err := fleetSpecs()
	if err != nil {
		return err
	}
	spec, err := compress.ParseSpec(fleetCompression)
	if err != nil {
		return err
	}
	agg, err := fleet.NewAggregator("fedavg", nil)
	if err != nil {
		return err
	}
	model := fleetModel(seed)
	global, err := model()
	if err != nil {
		return err
	}
	globalPs := global.Params()
	ds := fleetDataset(fleetWorkers, fleetSamples, seed)
	workers := make([]*fleet.Worker, fleetWorkers)
	comps := make([]*compress.Compressor, fleetWorkers)
	for i := range workers {
		if workers[i], err = fleet.NewWorker(specs[i], i, fleetWorkers, model, ds, 0, 1, trainer.NewSGD(0.05)); err != nil {
			return err
		}
		defer workers[i].Close()
		if comps[i], err = compress.NewCompressor(spec); err != nil {
			return err
		}
	}

	base := len(rec.spans)
	var encoded, raw int64
	var blob []byte
	for r := 0; r < rounds; r++ {
		rec.op = r
		round := rec.begin("replay.round", "")
		updates := make([]fleet.Update, 0, fleetWorkers)
		for i, w := range workers {
			for k, p := range w.Chain.Params() {
				copy(p.Value.Data(), globalPs[k].Value.Data())
			}
			var u fleet.Update
			rec.timed("fleet.local", func() { u, err = agg.Local(w, r) })
			if err != nil {
				return err
			}
			u.Worker = i
			var enc *compress.EncodedUpdate
			rec.timed("compress.encode", func() { enc, err = comps[i].Encode(u.Vecs) })
			if err != nil {
				return err
			}
			var dec *compress.Decoded
			rec.timed("compress.decode", func() { dec, err = compress.Decode(enc.Data) })
			if err != nil {
				return err
			}
			u.Vecs = dec.Vecs
			rec.timed("fleet.validate", func() { err = fleet.ValidateUpdate(globalPs, u) })
			if err != nil {
				return err
			}
			encoded += int64(len(enc.Data))
			raw += enc.RawBytes
			blob = enc.Data
			updates = append(updates, u)
		}
		rec.timed("fleet.fold", func() { err = agg.Fold(globalPs, updates) })
		if err != nil {
			return err
		}
		rec.end(round)
	}
	spans := rec.spans[base:]
	dur := durations(spans)
	perUpdate := func(name string) float64 {
		return median(perOp(spans, dur, name, rounds)) / fleetWorkers
	}
	m.set("compress.encode_ms_per_update", perUpdate("compress.encode"))
	m.set("compress.decode_ms_per_update", perUpdate("compress.decode"))
	m.set("compress.encoded_bytes_per_update", float64(encoded)/float64(rounds*fleetWorkers))
	m.set("compress.ratio", float64(raw)/float64(encoded))
	m.set("fleet.validate_ms_per_update", perUpdate("fleet.validate"))
	m.set("fleet.fold_ms_per_round", median(perOp(spans, dur, "fleet.fold", rounds)))

	rtt, err := frameRTT(blob, 20)
	if err != nil {
		return err
	}
	m.set("coord.frame_rtt_ms", rtt)
	return nil
}

// frameRTT echoes one frame with the given payload over a coord.TCP
// connection and returns the median round trip.
func frameRTT(payload []byte, reps int) (float64, error) {
	t := &coord.TCP{}
	l, err := t.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for i := 0; i < reps; i++ {
			f, err := conn.Recv()
			if err == nil {
				err = conn.Send(f)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	conn, err := t.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		if err := conn.Send(ckpt.Frame{Type: 1 << 16, Payload: payload}); err != nil {
			return 0, err
		}
		if _, err := conn.Recv(); err != nil {
			return 0, err
		}
		times[i] = ms(time.Since(t0))
	}
	if err := <-echoed; err != nil {
		return 0, err
	}
	return median(times), nil
}

// ckptMetrics times the durable-checkpoint layer alone on the newest session
// in src, whatever wrote it: load, encode, and a crash-safe save into a
// second directory.
func ckptMetrics(m metricSet, src *ckpt.Dir, root string) error {
	scratch, err := os.MkdirTemp(root, "resave-")
	if err != nil {
		return err
	}
	dst, err := ckpt.Open(scratch)
	if err != nil {
		return err
	}
	var loadMs, encMs, saveMs []float64
	var size int
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sess, _, err := src.Load()
		if err != nil {
			return err
		}
		loadMs = append(loadMs, ms(time.Since(t0)))
		t0 = time.Now()
		data, err := ckpt.Encode(sess)
		if err != nil {
			return err
		}
		encMs = append(encMs, ms(time.Since(t0)))
		size = len(data)
		t0 = time.Now()
		if _, err := dst.Save(sess); err != nil {
			return err
		}
		saveMs = append(saveMs, ms(time.Since(t0)))
	}
	m.set("ckpt.load_ms", median(loadMs))
	m.set("ckpt.encode_ms", median(encMs))
	m.set("ckpt.save_ms_p50", median(saveMs))
	m.set("ckpt.save_mb", float64(size)/1e6)
	return nil
}
