package coord

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
)

// WorkerOptions configures one edge worker process.
type WorkerOptions struct {
	// Spec identifies the worker: its name (the rejoin identity — a worker
	// reconnecting under the same name recovers its slot and optimizer
	// state), device profile, RAM budget and spill directory.
	Spec fleet.WorkerSpec
	// Model builds the worker's model replica once the assignment is known.
	// It must be the same deterministic factory the coordinator uses.
	Model func(a Assignment) (*chain.Chain, error)
	// Dataset builds the worker's local copy of the full dataset; the worker
	// trains on shard a.Index of a.Workers (trainer.Shard), exactly as the
	// in-process fleet would.
	Dataset func(a Assignment) (trainer.Dataset, error)
	// Codecs is the update-compression capability the worker advertises in
	// its hello. Nil means every codec (compress.AllCodecs); an empty
	// non-nil slice advertises none, so a coordinator running a lossy spec
	// turns this worker away in the handshake.
	Codecs []string
	// Retries is the reconnect budget: how many consecutive failed
	// connection attempts the worker tolerates before giving up. The budget
	// refills every time a handshake succeeds, so a long-lived worker on a
	// flaky link survives any number of isolated blips. 0 means the default
	// of 5; negative disables reconnecting entirely (single-shot, the
	// pre-fault-tolerance behavior).
	Retries int
	// BackoffMin and BackoffMax bound the exponential backoff between
	// reconnect attempts (defaults 50ms and 5s). Each wait doubles the
	// previous one and adds jitter so a restarted coordinator is not hit by
	// a synchronized thundering herd of rejoining workers.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// beforeUpdate, when non-nil, runs after local training and before the
	// update upload; an error abandons the connection — the test hook that
	// simulates a worker crashing mid-round.
	beforeUpdate func(round int) error
}

// WorkerResult summarises one worker process's run, accumulated across every
// connection the reconnect loop established.
type WorkerResult struct {
	// Assignment is the slot and run configuration the coordinator granted
	// (from the most recent handshake).
	Assignment Assignment
	// Rounds is how many of this worker's updates were accepted for folding.
	Rounds int
	// Restored reports whether the worker rejoined and recovered durable
	// state from the coordinator on any connection.
	Restored bool
	// WireSent and WireReceived are the framed bytes moved on the wire,
	// summed over all connections.
	WireSent     int64
	WireReceived int64
}

// transientError marks a failure worth a reconnect: the network or the
// coordinator process went away mid-conversation, as opposed to the
// coordinator deliberately rejecting this worker.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transientf(format string, args ...any) error {
	return &transientError{fmt.Errorf(format, args...)}
}

func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// RunWorker joins the coordinator at addr, trains rounds until the
// coordinator signals completion, and returns the worker's summary. It is
// the whole lifecycle of one edge worker process: capability handshake,
// shard assignment, per-round pull → local train → update push, with
// heartbeats at the coordinator's interval whenever the worker computes
// between frames, and durable-state capture with every update.
//
// Connection failures — a refused dial, a dropped conn mid-round, a
// coordinator restart — do not kill the worker: it reconnects with
// exponential backoff under the same name, and the coordinator's rejoin path
// hands back the last committed optimizer state, so training continues
// exactly where the last folded round left it. Only a deliberate rejection
// (capability mismatch, poisoned update) or local failure is fatal.
func RunWorker(t Transport, addr string, opts WorkerOptions) (*WorkerResult, error) {
	if opts.Spec.Name == "" {
		return nil, fmt.Errorf("coord: worker needs a name (the rejoin identity)")
	}
	if opts.Model == nil || opts.Dataset == nil {
		return nil, fmt.Errorf("coord: worker needs Model and Dataset builders")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 5
	}
	if retries < 0 {
		retries = 0
	}
	backoffMin := opts.BackoffMin
	if backoffMin <= 0 {
		backoffMin = 50 * time.Millisecond
	}
	backoffMax := opts.BackoffMax
	if backoffMax < backoffMin {
		backoffMax = 5 * time.Second
		if backoffMax < backoffMin {
			backoffMax = backoffMin
		}
	}
	// Jitter draws from a per-worker source so a fleet of workers restarted
	// together fans out instead of stampeding in lockstep.
	h := fnv.New64a()
	h.Write([]byte(opts.Spec.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	// Telemetry shipping auto-enables with the process observability
	// defaults: when either is installed, the worker piggybacks delta
	// snapshots and recent spans on its heartbeats and updates. The
	// shipper outlives reconnects so a rejoined session continues from
	// the last shipped position instead of re-counting from zero.
	// Series already carrying a worker label are foreign (ingested by a
	// coordinator sharing this process's registry over the loopback
	// transport) and are never echoed back.
	var ship *obs.DeltaShipper
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		ship = obs.NewDeltaShipper(obs.Default(), obs.DefaultTracer())
		ship.SkipLabels = []string{"worker"}
	}

	res := &WorkerResult{}
	budget := retries
	backoff := backoffMin
	for {
		err := runWorkerSession(t, addr, opts, ship, logf, res, func() {
			// A successful handshake refills the reconnect budget: the
			// bound is on consecutive failures, not lifetime ones.
			budget = retries
			backoff = backoffMin
		})
		if err == nil {
			return res, nil
		}
		if !isTransient(err) {
			return res, err
		}
		if budget <= 0 {
			return res, fmt.Errorf("coord: worker %s giving up after %d reconnect attempts: %w",
				opts.Spec.Name, retries, err)
		}
		budget--
		wait := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		logf("worker %s: connection lost (%v); reconnecting in %s (%d attempts left)",
			opts.Spec.Name, err, wait.Round(time.Millisecond), budget+1)
		time.Sleep(wait)
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// runWorkerSession runs one connection's worth of the worker lifecycle:
// dial, handshake, train rounds until the conn breaks or the run completes.
// A nil return means the coordinator declared the run complete; a transient
// error asks the caller to reconnect; any other error is fatal. onWelcome
// fires once the handshake has been accepted.
func runWorkerSession(t Transport, addr string, opts WorkerOptions, ship *obs.DeltaShipper,
	logf func(string, ...any), res *WorkerResult, onWelcome func()) error {
	conn, err := t.Dial(addr)
	if err != nil {
		return transientf("dialing coordinator: %w", err)
	}
	defer conn.Close()
	defer func() {
		sent, recv := conn.Stats()
		res.WireSent += sent
		res.WireReceived += recv
	}()

	budget := opts.Spec.BudgetBytes
	if budget <= 0 {
		budget = opts.Spec.Device.MemoryBytes
	}
	codecs := opts.Codecs
	if codecs == nil {
		codecs = compress.AllCodecs
	}
	err = conn.Send(encodeHello(hello{
		version:     ProtocolVersion,
		name:        opts.Spec.Name,
		device:      opts.Spec.Device.Name,
		budgetBytes: budget,
		codecs:      codecs,
	}))
	if err != nil {
		return transientf("coord: sending hello: %w", err)
	}
	f, err := conn.Recv()
	if err != nil {
		return transientf("coord: waiting for welcome: %w", err)
	}
	a, err := expectWelcome(f)
	if err != nil {
		if strings.Contains(err.Error(), "run complete") {
			// We reconnected into a finished run (our final ack was lost in
			// flight): the round we uploaded is folded and done. Exit the
			// way a worker that saw the done frame would.
			logf("worker %s: run complete (%d rounds contributed)", opts.Spec.Name, res.Rounds)
			return nil
		}
		return err
	}
	onWelcome()
	logf("worker %s: assigned slot %d of %d (%s, optimizer %s lr %g)",
		opts.Spec.Name, a.Index, a.Workers, a.Aggregator, a.Optimizer, a.LR)
	res.Assignment = a

	// The coordinator waits on this worker's first pull from here on: beat
	// while the dataset and the model replica are built.
	stopBeat := startHeartbeat(conn, a.Heartbeat, ship, 0)
	defer func() { stopBeat() }()
	ds, err := opts.Dataset(a)
	if err != nil {
		return fmt.Errorf("coord: building dataset: %w", err)
	}
	opt, err := trainer.NewOptimizer(a.Optimizer, a.LR)
	if err != nil {
		return err
	}
	w, err := fleet.NewWorker(opts.Spec, a.Index, a.Workers,
		func() (*chain.Chain, error) { return opts.Model(a) },
		ds, a.BatchSize, a.LocalEpochs, opt)
	if err != nil {
		return err
	}
	defer w.Close()
	replica := w.Chain.Params()
	agg, err := fleet.NewAggregator(a.Aggregator, nil)
	if err != nil {
		return err
	}
	// The run's update codec, assigned in the welcome. The compressor (and
	// its error-feedback residual) lives for this connection: a reconnect
	// starts with a zero residual, losing at most one update's worth of
	// dropped mass — the same information a lost connection already loses.
	var comp *compress.Compressor
	if a.Compression != "" {
		spec, err := compress.ParseSpec(a.Compression)
		if err != nil {
			return fmt.Errorf("coord: assigned compression: %w", err)
		}
		comp, err = compress.NewCompressor(spec)
		if err != nil {
			return fmt.Errorf("coord: assigned compression: %w", err)
		}
		logf("worker %s: compressing updates with %s", opts.Spec.Name, spec)
	}

	if a.State != nil {
		if err := w.RestoreState(*a.State); err != nil {
			return err
		}
		res.Restored = true
		logf("worker %s: recovered optimizer state (%d rounds, %d samples done)",
			opts.Spec.Name, a.State.Rounds, a.State.Samples)
	}

	stopBeat()
	for {
		if err := conn.Send(ckpt.Frame{Type: msgPull}); err != nil {
			return transientf("coord: sending pull: %w", err)
		}
		f, err := conn.Recv()
		if err != nil {
			return transientf("coord: waiting for round: %w", err)
		}
		switch f.Type {
		case msgDone:
			logf("worker %s: run complete (%d rounds contributed)", opts.Spec.Name, res.Rounds)
			return nil
		case msgError:
			msg, _ := parseError(f.Payload)
			return fmt.Errorf("coord: coordinator rejected worker: %s", msg)
		case msgRound:
			// Handled below.
		default:
			return fmt.Errorf("coord: expected round directive, got %s message", msgName(f.Type))
		}
		round, err := decodeRoundInto(f.Payload, replica)
		if err != nil {
			return err
		}
		// Copy the pre-round state (training writes the slots in place): if
		// the coordinator closes this round below quorum and asks for a
		// retry, local training must restart from exactly here or the
		// retried update diverges from the one a fault-free round folds.
		preOpt, err := w.StateView()
		if err != nil {
			return err
		}
		preOpt.Opt = preOpt.Opt.Clone()
		preLayers := ckpt.CaptureLayerState(w.Chain.Stages)

		// Local computation with heartbeats flowing; the coordinator-side
		// handler is guaranteed to be reading during this window. Each
		// heartbeat carries a telemetry delta when shipping is enabled, so
		// the coordinator's fleet view advances while the round is still
		// training.
		stopBeat = startHeartbeat(conn, a.Heartbeat, ship, round)
		tstart := time.Now()
		ltSpan := obs.DefaultTracer().Span("local-train", round, a.Index)
		u, lerr := agg.Local(w, round)
		ltSpan.End()
		stopBeat()
		if lerr != nil {
			return fmt.Errorf("coord: round %d local computation: %w", round, lerr)
		}
		if opts.beforeUpdate != nil {
			if err := opts.beforeUpdate(round); err != nil {
				return err
			}
		}
		// Views, like u.Vecs: encodeUpdate serializes them before any training.
		ws, err := w.StateView()
		if err != nil {
			return err
		}
		// The state is the rejoin recovery point: account this round's
		// contribution as if folded, matching what an in-process fleet
		// checkpoint taken after the round would hold.
		ws.Rounds++
		ws.Samples += int64(u.Samples)
		msg := updateMsg{
			round:    round,
			samples:  u.Samples,
			loss:     u.Loss,
			duration: time.Since(tstart),
			strategy: w.Choice.Strategy,
			stats:    u,
			vecs:     u.Vecs,
			state:    ws,
		}
		// The round's closing telemetry shipment rides on the update, so
		// the just-ended local-train span reaches the coordinator with the
		// result it describes.
		if ship != nil {
			samples, events := ship.Collect()
			if len(samples) > 0 || len(events) > 0 {
				msg.telem = &telemetry{round: round, samples: samples, events: events}
			}
		}
		// The residual snapshot taken just before encoding is the rewind
		// point: a retry discards the attempt's error feedback along with
		// the optimizer step, so the retrained round re-encodes from the
		// exact state a fault-free round would have seen.
		var preResidual [][]float64
		encoded := comp != nil && u.Samples > 0
		if encoded {
			preResidual = comp.Snapshot()
			enc, err := comp.Encode(u.Vecs)
			if err != nil {
				return fmt.Errorf("coord: round %d: encoding update: %w", round, err)
			}
			msg.codec = comp.Spec().String()
			msg.blob = enc.Data
			msg.vecs = nil
		}
		frame, err := encodeUpdate(msg)
		if err != nil {
			return err
		}
		if err := conn.Send(frame); err != nil {
			return transientf("coord: uploading round %d update: %w", round, err)
		}
		f, err = conn.Recv()
		if err != nil {
			return transientf("coord: waiting for round %d ack: %w", round, err)
		}
		if f.Type != msgAck {
			if f.Type == msgError {
				msg, _ := parseError(f.Payload)
				return fmt.Errorf("coord: round %d: %s", round, msg)
			}
			return fmt.Errorf("coord: expected ack, got %s message", msgName(f.Type))
		}
		ack, err := parseAck(f.Payload)
		if err != nil {
			return err
		}
		switch ack.status {
		case AckOK:
			w.AddProgress(1, int64(u.Samples))
			res.Rounds++
			logf("worker %s: round %d folded (loss %.4f, %d samples)", opts.Spec.Name, round, u.Loss, u.Samples)
		case AckRetry:
			// The round closed below quorum and was discarded: rewind to
			// the pre-round snapshot and train the re-broadcast round as if
			// this attempt never happened.
			if err := w.RestoreState(preOpt); err != nil {
				return err
			}
			if err := (&ckpt.Session{LayerState: preLayers}).ApplyLayerState(w.Chain.Stages); err != nil {
				return err
			}
			if encoded {
				// A nil snapshot is round zero's: no residual yet.
				comp.Restore(preResidual)
			}
			logf("worker %s: round %d closed below quorum, rewound for retry", opts.Spec.Name, round)
		case AckLate:
			logf("worker %s: round %d update arrived past the deadline, discarded", opts.Spec.Name, round)
		case AckRejected:
			return fmt.Errorf("coord: round %d update rejected by coordinator", round)
		default:
			return fmt.Errorf("coord: unknown ack status %q", ack.status)
		}
	}
}

func expectWelcome(f ckpt.Frame) (Assignment, error) {
	switch f.Type {
	case msgWelcome:
		return parseWelcome(f.Payload)
	case msgError:
		msg, _ := parseError(f.Payload)
		return Assignment{}, fmt.Errorf("coord: coordinator rejected worker: %s", msg)
	default:
		return Assignment{}, fmt.Errorf("coord: expected welcome, got %s message", msgName(f.Type))
	}
}

// startHeartbeat streams liveness frames until stopped, each carrying the
// telemetry delta collected since the last shipment when shipping is
// enabled (nil shipper → empty payloads, the "alive, no telemetry" form).
// The stop function waits the sender out, so no heartbeat can interleave
// with the frame that follows; calling it again is a no-op. A welcome that
// sets no interval asks for no heartbeats.
func startHeartbeat(conn Conn, every time.Duration, ship *obs.DeltaShipper, round int) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				f := ckpt.Frame{Type: msgHeartbeat}
				if ship != nil {
					samples, events := ship.Collect()
					if len(samples) > 0 || len(events) > 0 {
						f.Payload = encodeTelemetry(telemetry{round: round, samples: samples, events: events})
					}
				}
				if conn.Send(f) != nil {
					return
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
