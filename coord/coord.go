// Package coord runs a fleet training round loop over a real transport: a
// long-running coordinator process owns the global model, round state and
// aggregator, and edge worker processes register with a capability
// handshake, pull round assignments, train locally with the existing
// chain/plan machinery, and push updates back.
//
// The wire protocol is deliberately thin: every message is one ckpt frame
// (the checkpoint codec's 28-byte header + CRC32 over a raw payload) and
// every tensor crosses as the fp64-exact nn tensor encoding. Combined
// with the fleet engine's deterministic fold contract — updates folded in
// ascending worker-slot order, no RNG consumed under full participation —
// a distributed run produces global weights byte-identical to the
// in-process fleet.Run, over TCP or the in-process Loopback transport
// alike; the equivalence tests pin exactly that.
//
// The fleet is elastic. A worker that dies mid-round (connection error, or
// silence past Config.Liveness while it owes a frame) is dropped from that
// round's fold and the round completes with the survivors. The coordinator
// keeps each slot's latest durable state (optimizer slots, progress
// counters, captured with every update), so a worker rejoining under the
// same name recovers its optimizer state exactly as fleet.ResumeFrom
// restores a checkpointed in-process worker; its hello replaces the old
// connection if that one is still seated. Stragglers past the round deadline
// stay joined: their late update is acknowledged and discarded, and they
// rejoin the next round.
package coord

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
)

// ErrClosed is returned by Wait when the coordinator was closed before the
// run completed.
var ErrClosed = errors.New("coord: coordinator closed")

// Config controls a coordinated fleet run.
type Config struct {
	// Workers is the fleet size: the number of slots, which fixes the shard
	// count. Workers join and leave elastically, but the sharding never
	// changes mid-run.
	Workers int
	// MinWorkers is how many workers must join before round zero starts
	// (default Workers).
	MinWorkers int
	// Rounds is the number of aggregation rounds (default 1).
	Rounds int
	// LocalEpochs, BatchSize and Samples mirror fleet.Config and the dataset
	// size; they are handed to workers in the welcome so every worker
	// reconstructs the same shards the in-process engine would.
	LocalEpochs int
	BatchSize   int
	Samples     int
	// Seed is the run seed, forwarded to workers for deterministic dataset
	// and model construction.
	Seed uint64
	// Aggregator is the aggregation mode: "fedavg" (default) or "allreduce".
	Aggregator string
	// Optimizer ("sgd", "momentum", "adam"; default "sgd") and LR (default
	// 0.05) configure both the workers' local optimisers and, for
	// all-reduce, the coordinator's global optimiser.
	Optimizer string
	LR        float64
	// Compression is the update-codec spec (compress.ParseSpec syntax, e.g.
	// "topk:0.05+int8+deflate"); empty or "none" ships full fp64 updates.
	// The spec is handed to workers in the welcome, and the handshake rejects
	// workers lacking a codec the spec requires.
	Compression string
	// UplinkMbps is the modeled uplink rate behind the report's
	// ModeledUplink figures (default 10, the Waggle-class LTE link).
	UplinkMbps float64
	// JoinTimeout bounds the wait for MinWorkers at startup; if it expires
	// with at least one worker joined, the run starts short-handed (default
	// 30s).
	JoinTimeout time.Duration
	// Liveness bounds every wait for a frame a worker owes: its hello, its
	// pull after the welcome or an ack, its heartbeats and update after a
	// round directive. A connection silent this long is closed and its worker
	// treated as dead. Waits on the coordinator itself (a parked pull, a
	// withheld ack) are not counted. The welcome tells workers to beat every
	// Liveness/30 while they compute, so the limit in effect bounds one
	// frame's transfer: it must exceed an update's upload on the slowest
	// link (default 30s).
	Liveness time.Duration
	// RoundDeadline is the hard cap on one round's collection phase. When it
	// expires, workers still outstanding are marked dropped for the round
	// (they stay joined; a late update is acknowledged and discarded) and
	// the fold proceeds with the updates in hand. Zero disables.
	RoundDeadline time.Duration
	// RoundRetries bounds how many times one round is re-broadcast when its
	// collection ends below the MinWorkers quorum (workers died or straggled
	// past the deadline). Between attempts the coordinator waits for the
	// fleet to recover — a rejoining worker restores its optimizer state and
	// retrains the round from the identical basis, so a retried round folds
	// the exact updates an undisturbed round would. Default 3; negative
	// disables the quorum entirely (fold whatever arrived, the pre-quorum
	// behaviour).
	RoundRetries int
	// StateDir, when non-empty, makes the coordinator durable: every round
	// boundary saves the global model, global optimizer, round cursor and
	// fleet membership crash-safe via ckpt.Dir, beside the next round, whose
	// fold waits for the write. A coordinator restarted on the same
	// StateDir resumes from the last completed round; reconnecting workers
	// recover their optimizer state from the welcome, so the finished run is
	// byte-identical to one that was never interrupted. One coordinator
	// process owns a StateDir at a time.
	StateDir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// afterRound, when non-nil, runs on the run loop after round r's fold
	// and checkpoint enqueue — the test hook chaos tests use to kill the
	// coordinator at a chosen round boundary.
	afterRound func(round int)
}

// Coordinator owns the global model and drives the round loop over a
// transport. All mutable round state is confined to one goroutine (the run
// loop); connection handlers only perform I/O and exchange typed events
// with it, so the coordinator needs no lock around model or slot state.
type Coordinator struct {
	cfg Config
	// core owns the global model, the fold and the round's books — the
	// engine this loop shares with the in-process fleet.Run.
	core *fleet.Core

	listener Listener
	events   chan event
	quit     chan struct{}
	done     chan struct{}
	closing  sync.Once
	started  atomic.Bool

	// Durable-state machinery (nil / zero without Config.StateDir): the
	// checkpoint directory and its writer, the round the run loop starts at
	// (non-zero after a resume) and the membership restored from it.
	stateDir   *ckpt.Dir
	saver      *ckpt.Saver
	startRound int
	resumed    []ckpt.WorkerState

	// Observability: co is always non-nil (nil-handle no-ops when no
	// registry is installed); the health atomics back the /healthz
	// endpoint without touching the run loop's state. flaps counts worker
	// rejoins since the last round boundary (run-loop only).
	co          *coordObs
	flaps       int
	healthRound atomic.Int64
	healthLive  atomic.Int64

	mu     sync.Mutex
	report *fleet.Report
	states []ckpt.WorkerState
	runErr error
}

// New builds a coordinator around the model the factory produces. The
// factory must match the workers' (same seed, same architecture): the
// handshake does not ship code, only configuration.
func New(cfg Config, model func() (*chain.Chain, error)) (*Coordinator, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("coord: fleet size %d", cfg.Workers)
	}
	if cfg.MinWorkers <= 0 || cfg.MinWorkers > cfg.Workers {
		cfg.MinWorkers = cfg.Workers
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.LocalEpochs <= 0 {
		cfg.LocalEpochs = 1
	}
	if cfg.Aggregator == "" {
		cfg.Aggregator = "fedavg"
	}
	if cfg.Optimizer == "" {
		cfg.Optimizer = "sgd"
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	if cfg.RoundRetries == 0 {
		cfg.RoundRetries = 3
	}
	if cfg.Liveness <= 0 {
		cfg.Liveness = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	globalOpt, err := trainer.NewOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	agg, err := fleet.NewAggregator(cfg.Aggregator, globalOpt)
	if err != nil {
		return nil, err
	}
	core, err := fleet.NewCore(stateKind, fleet.Config{
		Aggregator:  agg,
		Compression: cfg.Compression,
		UplinkMbps:  cfg.UplinkMbps,
		Seed:        cfg.Seed,
		BatchSize:   cfg.BatchSize,
	}, model)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		core:   core,
		events: make(chan event, 64),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.co = newCoordObs()
	if cfg.StateDir != "" {
		if err := c.openState(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// StartRound is the round the run loop begins at: zero for a fresh run, the
// last durably completed round's successor after a StateDir resume.
func (c *Coordinator) StartRound() int { return c.startRound }

// Start binds the transport endpoint and launches the accept and round
// loops, returning the bound address workers should dial.
func (c *Coordinator) Start(t Transport, addr string) (string, error) {
	if c.started.Swap(true) {
		return "", fmt.Errorf("coord: coordinator already started")
	}
	obs.DefaultTracer().NameLane(-1, "coordinator")
	l, err := t.Listen(addr)
	if err != nil {
		return "", err
	}
	c.listener = l
	go c.acceptLoop()
	go c.run()
	return l.Addr(), nil
}

// Wait blocks until the run completes (or the coordinator is closed) and
// returns the assembled fleet report.
func (c *Coordinator) Wait() (*fleet.Report, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report, c.runErr
}

// Global returns the global model. Safe to read after Wait returns.
func (c *Coordinator) Global() *chain.Chain { return c.core.Global() }

// WorkerStates returns each slot's latest captured durable state, in slot
// order (slots that never delivered an update are omitted). Safe after Wait.
func (c *Coordinator) WorkerStates() []ckpt.WorkerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.states
}

// Close aborts a running coordinator and releases the listener. Closing
// after a completed run is a no-op beyond cleanup.
func (c *Coordinator) Close() error {
	c.closing.Do(func() { close(c.quit) })
	if c.listener != nil {
		c.listener.Close()
	}
	return nil
}

type eventKind int

const (
	evHello eventKind = iota
	evUpdate
	evDeath
	evBye // handler delivered the final done frame; the worker left cleanly
)

type event struct {
	kind       eventKind
	rem        *remote
	conn       Conn
	hello      hello
	upd        updateMsg
	blobBytes  int64 // evUpdate: size of the compressed blob upd.vecs was decoded from
	err        error // evDeath: why the connection ended
	helloReply chan helloReply
	ackReply   chan ackReply
}

type helloReply struct {
	a   Assignment
	rem *remote
	err error
}

type ackReply struct {
	status string
	drop   bool
}

// directive is what a parked pull receives: the next round's broadcast, or
// the end of the run.
type directive struct {
	done  bool
	round int
	frame ckpt.Frame
}

// remote is the run loop's view of one live worker connection. roundCh is
// buffered so the run loop never blocks on a handler; the run loop closes it
// when a rejoin under the same name takes the slot.
type remote struct {
	conn     Conn
	name     string
	index    int
	roundCh  chan directive
	wireMark int64 // run-loop only: Stats() watermark for per-round deltas
}

// slot is one fleet position: who holds it, and the durable state the
// coordinator retains for crash recovery.
type slot struct {
	name         string
	device       string
	budget       int64
	rem          *remote // nil while the slot has no live worker
	state        *ckpt.WorkerState
	strategy     string
	shardSamples int
}

// post delivers an event to the run loop, giving up if the coordinator is
// shutting down (so handlers never block forever on a gone run loop).
func (c *Coordinator) post(e event) bool {
	select {
	case c.events <- e:
		return true
	case <-c.quit:
		return false
	case <-c.done:
		return false
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return
		}
		go c.serve(conn)
	}
}

// serve owns one connection: it performs every read and write on it,
// translating protocol messages into run-loop events. The protocol is
// strict ping-pong from the worker's side, so a synchronous pipe transport
// (Loopback) can never deadlock: whenever the worker writes, this goroutine
// is reading, and vice versa.
//
// serve also holds the fleet's one liveness rule. Every Recv here waits on a
// frame the worker owes, so each is bounded by Config.Liveness; a silent
// peer's connection is closed (the one transport-agnostic way to unblock a
// pending Recv) and reported dead like any broken one. Waits on the run loop
// (a parked pull, a withheld ack) run no clock.
func (c *Coordinator) serve(conn Conn) {
	defer conn.Close()
	recv := func() (ckpt.Frame, error) {
		limit := time.AfterFunc(c.cfg.Liveness, func() { conn.Close() })
		f, err := conn.Recv()
		if !limit.Stop() {
			return f, fmt.Errorf("silent for %v", c.cfg.Liveness)
		}
		return f, err
	}
	f, err := recv()
	if err != nil {
		return
	}
	if f.Type != msgHello {
		conn.Send(encodeError(fmt.Sprintf("coord: expected hello, got %s message", msgName(f.Type))))
		return
	}
	h, err := parseHello(f.Payload)
	if err != nil {
		conn.Send(encodeError(fmt.Sprintf("coord: bad hello: %v", err)))
		return
	}
	reply := make(chan helloReply, 1)
	if !c.post(event{kind: evHello, conn: conn, hello: h, helloReply: reply}) {
		return
	}
	var hr helloReply
	select {
	case hr = <-reply:
	case <-c.quit:
		return
	case <-c.done:
		// The run loop may have replied just before finishing.
		select {
		case hr = <-reply:
		default:
			return
		}
	}
	if hr.err != nil {
		conn.Send(encodeError(hr.err.Error()))
		return
	}
	rem := hr.rem
	// die reports the connection's end to the run loop, which books it once
	// however many ways it was noticed.
	die := func(err error) { c.post(event{kind: evDeath, rem: rem, err: err}) }
	if err := conn.Send(encodeWelcome(hr.a)); err != nil {
		die(err)
		return
	}
	for {
		f, err := recv()
		if err != nil {
			die(err)
			return
		}
		switch f.Type {
		case msgHeartbeat:
			// One-way liveness: its arrival restarted the clock. A non-empty
			// payload is a telemetry shipment, ingested here off the run
			// loop; a malformed one is as fatal as any other bad message.
			c.co.heartbeats.Inc()
			tm, err := parseHeartbeat(f.Payload)
			if err != nil {
				conn.Send(encodeError(fmt.Sprintf("coord: bad heartbeat: %v", err)))
				die(err)
				return
			}
			c.ingestTelemetry(rem, tm)
		case msgPull:
			var d directive
			ok := false
			select {
			case d, ok = <-rem.roundCh:
			case <-c.quit:
				// The coordinator is being torn down mid-run (crash, Close).
				// Sever the connection WITHOUT a done frame: the run did not
				// complete, and the worker's reconnect loop must keep dialing
				// until a restarted coordinator picks the run back up.
				return
			}
			if !ok {
				// A rejoin under this name took the slot; the run loop has
				// already closed this connection and booked its end.
				return
			}
			if d.done {
				conn.Send(ckpt.Frame{Type: msgDone})
				c.post(event{kind: evBye, rem: rem})
				return
			}
			if err := conn.Send(d.frame); err != nil {
				die(err)
				return
			}
		case msgUpdate:
			m, err := parseUpdate(f.Payload)
			if err != nil {
				conn.Send(encodeError(fmt.Sprintf("coord: bad update: %v", err)))
				die(err)
				return
			}
			c.co.stagedBytes.Add(int64(len(f.Payload)))
			// The update's trailing telemetry shipment (round-closing
			// spans) lands before the fold decision, so the stitched trace
			// has the local-train span when the round span closes.
			c.ingestTelemetry(rem, m.telem)
			// Decode a compressed blob here, off the run loop, so slow
			// decodes of one worker never serialize the round. Decode is a
			// pure function of the blob; the run loop still checks that the
			// codec matches the run's configured spec before folding.
			var blobBytes int64
			if m.codec != "" {
				dSpan := obs.DefaultTracer().Span("decode", m.round, rem.index)
				dec, err := compress.Decode(m.blob)
				dSpan.End()
				if err == nil && dec.Spec.String() != m.codec {
					err = fmt.Errorf("blob spec %q does not match declared codec %q", dec.Spec.String(), m.codec)
				}
				if err != nil {
					conn.Send(encodeError(fmt.Sprintf("coord: bad update: %v", err)))
					die(err)
					return
				}
				m.vecs = dec.Vecs
				// The blob lies in the connection's receive buffer, which the
				// next Recv overwrites; the run loop needs only its size.
				blobBytes, m.blob = int64(len(m.blob)), nil
			}
			ar := make(chan ackReply, 1)
			if !c.post(event{kind: evUpdate, rem: rem, upd: m, blobBytes: blobBytes, ackReply: ar}) {
				return
			}
			var a ackReply
			select {
			case a = <-ar:
			case <-c.quit:
				return
			case <-c.done:
				// The run loop may have replied just before finishing.
				select {
				case a = <-ar:
				default:
					return
				}
			}
			if err := conn.Send(encodeAck(ackMsg{round: m.round, status: a.status})); err != nil {
				die(err)
				return
			}
			if a.drop {
				return
			}
		default:
			err := fmt.Errorf("coord: unexpected %s message", msgName(f.Type))
			conn.Send(encodeError(err.Error()))
			die(err)
			return
		}
	}
}

// run is the coordinator's single-owner state machine: gather the fleet,
// drive the rounds, assemble the report.
func (c *Coordinator) run() {
	slots := make([]slot, c.cfg.Workers)
	// A resumed run re-seats the checkpointed membership: the slot names are
	// reserved and the durable states staged, so a worker reconnecting under
	// its old name walks the ordinary rejoin path and recovers its optimizer
	// state from before the crash.
	for i := range c.resumed {
		ws := c.resumed[i]
		if ws.Index < 0 || ws.Index >= len(slots) {
			continue
		}
		slots[ws.Index].name = ws.Name
		slots[ws.Index].state = &ws
	}
	// With a StateDir the one background saver persists every round
	// boundary; it owns the Dir from here until the Close below.
	if c.stateDir != nil {
		c.saver = ckpt.NewSaver(c.stateDir, -1) // spans on the coordinator's lane
	}
	rep := c.core.NewReport(make([]fleet.WorkerSummary, len(slots)))
	err := func() error {
		if err := c.gather(slots); err != nil {
			return err
		}
		for r := c.startRound; r < c.cfg.Rounds; r++ {
			c.healthRound.Store(int64(r))
			c.co.roundCursor.Set(float64(r))
			rs, err := c.runRound(r, slots)
			if err != nil {
				return err
			}
			// Rejoins since the previous boundary are this round's flap
			// count; the window resets for the next round.
			rs.Flaps = c.flaps
			c.flaps = 0
			// Finish labels the round's per-worker series with the report's
			// names: the slots' holders as of this commit.
			describeWorkers(rep, slots)
			for _, a := range c.core.Finish(rep, rs) {
				c.cfg.Logf("coord: ALERT %s", a)
			}
			c.cfg.Logf("coord: round %d: %d participants, %d dropouts, loss %.4f, wall %v",
				r, rs.Participants, rs.Dropouts, rs.Loss, rs.WallClock.Round(time.Millisecond))
			if c.saver != nil {
				// A view of the global model, written in the background;
				// the next round's commit waits for it (attemptRound).
				s, err := c.sessionView(r+1, slots)
				if err != nil {
					return err
				}
				err = c.saver.Submit(s, func(name string) {
					c.cfg.Logf("coord: state saved to %s (next round %d)", name, s.Round)
				})
				if err != nil {
					return fmt.Errorf("coord: saving state: %w", err)
				}
			}
			if c.cfg.afterRound != nil {
				c.cfg.afterRound(r)
			}
		}
		return nil
	}()

	// Release every live worker with a done directive; their handlers send
	// the final frame whenever the pull arrives and confirm with a bye.
	awaiting := make(map[*remote]bool)
	for i := range slots {
		if rem := slots[i].rem; rem != nil {
			select {
			case rem.roundCh <- directive{done: true}:
				awaiting[rem] = true
			default:
			}
		}
	}
	// Drain until the byes arrive (bounded), so Wait's caller can exit
	// without severing connections before the final frames are delivered.
	grace := time.NewTimer(5 * time.Second)
	defer grace.Stop()
drain:
	for len(awaiting) > 0 {
		select {
		case e := <-c.events:
			switch e.kind {
			case evBye, evDeath:
				delete(awaiting, e.rem)
			case evHello:
				e.helloReply <- helloReply{err: fmt.Errorf("coord: run complete")}
			case evUpdate:
				e.ackReply <- ackReply{status: AckLate}
			}
		case <-grace.C:
			break drain
		case <-c.quit:
			break drain
		}
	}
	c.listener.Close()
	if c.saver != nil {
		if serr := c.saver.Close(); serr != nil && err == nil {
			err = fmt.Errorf("coord: saving state: %w", serr)
		}
	}

	c.mu.Lock()
	c.runErr = err
	if err == nil {
		describeWorkers(rep, slots)
		c.report = rep
	}
	for i := range slots {
		if slots[i].state != nil {
			c.states = append(c.states, *slots[i].state)
		}
	}
	c.mu.Unlock()
	close(c.done)
}

// gather waits for MinWorkers to join (or JoinTimeout with at least one).
func (c *Coordinator) gather(slots []slot) error {
	deadline := time.NewTimer(c.cfg.JoinTimeout)
	defer deadline.Stop()
	for {
		if liveCount(slots) >= c.cfg.MinWorkers {
			return nil
		}
		select {
		case e := <-c.events:
			c.handleMembership(e, slots, nil)
		case <-deadline.C:
			if liveCount(slots) > 0 {
				c.cfg.Logf("coord: join timeout, starting with %d/%d workers", liveCount(slots), c.cfg.Workers)
				return nil
			}
			return fmt.Errorf("coord: no workers joined within %v", c.cfg.JoinTimeout)
		case <-c.quit:
			return ErrClosed
		}
	}
}

func liveCount(slots []slot) int {
	n := 0
	for i := range slots {
		if slots[i].rem != nil {
			n++
		}
	}
	return n
}

// window is one collection attempt's books: the workers that still owe an
// update, the updates staged for the fold, and how many workers contributed.
type window struct {
	rs          *fleet.RoundStats
	expected    map[int]*remote
	staged      map[int]*pendingUpdate
	contributed int // staged updates + empty-shard participants
}

// handleMembership processes hello and death events; update events outside
// a collection window (a straggler finishing between rounds) are
// acknowledged late. w is the current collection window, nil outside one.
func (c *Coordinator) handleMembership(e event, slots []slot, w *window) {
	switch e.kind {
	case evHello:
		c.handleHello(e, slots, w)
	case evDeath:
		c.retire(e.rem, e.err, slots, w)
	case evUpdate:
		e.ackReply <- ackReply{status: AckLate}
	}
}

// retire ends rem's hold on its slot and, inside a collection window, books
// it as the round's dropout. A remote retired before is left alone, so a
// death reported after a takeover or a rejection counts once.
func (c *Coordinator) retire(rem *remote, why error, slots []slot, w *window) {
	i := rem.index
	if slots[i].rem == rem {
		slots[i].rem = nil
		c.co.dropped.Inc()
		c.noteLive(slots)
		c.cfg.Logf("coord: worker %s (slot %d) left: %v", rem.name, i, why)
	}
	if w == nil {
		return
	}
	if w.expected[i] == rem {
		delete(w.expected, i)
	} else if p := w.staged[i]; p != nil && p.rem == rem {
		// Only a takeover retires a remote whose update is staged. The rejoin
		// was handed the slot's state from before this round, so folding the
		// update would fork that state from the global model: unstage it.
		delete(w.staged, i)
		w.contributed--
		p.ack <- ackReply{status: AckLate}
	} else {
		return
	}
	w.rs.Workers[i].Dropped = true
	w.rs.Dropouts++
}

func (c *Coordinator) handleHello(e event, slots []slot, w *window) {
	h := e.hello
	fail := func(format string, args ...any) {
		c.co.rejected.Inc()
		e.helloReply <- helloReply{err: fmt.Errorf(format, args...)}
	}
	if h.version != ProtocolVersion {
		fail("coord: protocol version %d, coordinator speaks %d", h.version, ProtocolVersion)
		return
	}
	if h.name == "" {
		fail("coord: empty worker name")
		return
	}
	for _, need := range c.core.Spec().Required() {
		if !slices.Contains(h.codecs, need) {
			fail("coord: fleet compresses updates with %q, worker %s lacks codec %q (supports %v)",
				c.core.Compression(), h.name, need, h.codecs)
			return
		}
	}
	// Slot assignment: a returning name reclaims its slot (recovering its
	// state), otherwise the lowest never-used slot, otherwise the lowest
	// dead slot (whose previous holder's state is discarded).
	idx, rejoin := -1, false
	for i := range slots {
		if slots[i].name == h.name {
			idx, rejoin = i, true
			break
		}
	}
	if idx < 0 {
		for i := range slots {
			if slots[i].rem == nil && slots[i].name == "" {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		for i := range slots {
			if slots[i].rem == nil {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		fail("coord: fleet full (%d workers)", len(slots))
		return
	}
	s := &slots[idx]
	if old := s.rem; old != nil {
		// The name's connection is still seated: the worker restarted before
		// its old connection failed (a peer gone silent without closing).
		// The old connection ends as a death would, and the hello below
		// seats the new one as a rejoin.
		old.conn.Close()
		close(old.roundCh)
		c.retire(old, errors.New("replaced by a new connection under its name"), slots, w)
	}
	rem := &remote{
		conn:    e.conn,
		name:    h.name,
		index:   idx,
		roundCh: make(chan directive, 1),
	}
	sent, received := e.conn.Stats()
	rem.wireMark = sent + received
	if !rejoin {
		s.state = nil
		s.strategy = ""
		s.shardSamples = 0
	}
	s.name = h.name
	s.device = h.device
	s.budget = h.budgetBytes
	s.rem = rem
	a := Assignment{
		Index:       idx,
		Workers:     len(slots),
		Rounds:      c.cfg.Rounds,
		LocalEpochs: c.cfg.LocalEpochs,
		BatchSize:   c.cfg.BatchSize,
		Samples:     c.cfg.Samples,
		Seed:        c.cfg.Seed,
		Aggregator:  c.core.Aggregator().Name(),
		Optimizer:   c.cfg.Optimizer,
		LR:          c.cfg.LR,
		Compression: c.core.Compression(),
		Heartbeat:   max(c.cfg.Liveness/30, time.Millisecond),
	}
	if rejoin {
		a.State = s.state
	}
	verb := "joined"
	if rejoin {
		c.co.rejoined.Inc()
		c.flaps++
	} else {
		c.co.joined.Inc()
	}
	obs.DefaultTracer().NameLane(idx, h.name)
	if rejoin && s.state != nil {
		verb = "rejoined with recovered state"
	}
	c.noteLive(slots)
	c.cfg.Logf("coord: worker %s (%s, %d MB budget) %s as slot %d", h.name, h.device, h.budgetBytes/1e6, verb, idx)
	e.helloReply <- helloReply{a: a, rem: rem}
}

// runRound executes one aggregation round: broadcast the global parameters
// to every live worker, collect their updates (handling joins, deaths and
// stragglers meanwhile), and fold the arrivals in ascending slot order —
// but only when at least MinWorkers contributed. A
// collection that ends below that quorum folds nothing: the arrived updates
// are acknowledged "retry" and discarded, the coordinator waits for the
// fleet to recover, and the same round is re-broadcast (bounded by
// Config.RoundRetries). Because a retried round re-broadcasts the unchanged
// global parameters and every worker retrains it from its pre-round
// optimizer state, the eventual fold is byte-identical to one that was
// never disturbed.
func (c *Coordinator) runRound(r int, slots []slot) (rs fleet.RoundStats, err error) {
	start := time.Now()
	c.co.roundsStarted.Inc()
	roundSpan := obs.DefaultTracer().Span("round", r, -1)
	// A span is recorded only when it ends, and the round an operator most
	// needs to find in /trace is the one that failed: end it on every path.
	defer func() { roundSpan.EndErr(err) }()
	rs = c.core.BeginRound(r, len(slots))

	// Broadcast: one encoded frame shared by every directive (payloads are
	// read-only once built), and identical across retry attempts — the
	// global parameters only move when a fold commits.
	globalPs := c.core.Params()
	params := make([]ckpt.NamedTensor, len(globalPs))
	for i, p := range globalPs {
		params[i] = ckpt.NamedTensor{Name: p.Name, Tensor: p.Value}
	}
	frame, err := encodeRound(roundMsg{round: r, params: params})
	if err != nil {
		return rs, err
	}

	for attempt := 0; ; attempt++ {
		folded, idle, err := c.attemptRound(r, frame, slots, &rs)
		if err != nil {
			return rs, err
		}
		if folded {
			rs.Retries = attempt
			break
		}
		if c.cfg.RoundRetries >= 0 && attempt >= c.cfg.RoundRetries {
			return rs, fmt.Errorf("coord: round %d: quorum of %d workers not met after %d attempts",
				r, c.cfg.MinWorkers, attempt+1)
		}
		c.co.roundRetries.Inc()
		obs.DefaultTracer().Event("retry", r, -1, fmt.Sprintf("attempt=%d below quorum", attempt+1))
		c.cfg.Logf("coord: round %d below quorum (%d workers required), retrying (attempt %d)",
			r, c.cfg.MinWorkers, attempt+2)
		if err := c.awaitQuorum(r, slots, idle); err != nil {
			return rs, err
		}
	}

	// Measured wire traffic: per-connection byte deltas since the last
	// round boundary (retry attempts included — those bytes really moved).
	for i := range slots {
		rem := slots[i].rem
		if rem == nil {
			continue
		}
		sent, received := rem.conn.Stats()
		total := sent + received
		rs.Workers[i].WireBytes = total - rem.wireMark
		rem.wireMark = total
	}
	rs.WallClock = time.Since(start)
	return rs, nil
}

// pendingUpdate is one staged, validated update awaiting the fold decision.
// Its ack is deliberately withheld: the worker only learns "ok" once its
// update is irrevocably part of the fold, or "retry" when the attempt was
// discarded — so no worker ever counts progress for a round that folded
// nothing, and the committed slot state never diverges from the global model.
type pendingUpdate struct {
	rem       *remote
	upd       updateMsg
	update    fleet.Update // what the fold consumes: upd's stats, samples, loss and tensors
	blobBytes int64
	ack       chan ackReply
}

// attemptRound runs one broadcast/collect/fold attempt of round r. It
// returns folded=false when the collection ended below the MinWorkers quorum
// (the caller retries), and idle=true when no live worker could even receive
// the broadcast (the caller waits for membership events before retrying).
// With RoundRetries < 0 the quorum is disabled and every attempt folds
// whatever arrived.
func (c *Coordinator) attemptRound(r int, frame ckpt.Frame, slots []slot, rs *fleet.RoundStats) (folded, idle bool, err error) {
	quorum := c.cfg.RoundRetries >= 0
	tr := obs.DefaultTracer()
	bSpan := tr.Span("broadcast", r, -1)
	w := &window{rs: rs, expected: make(map[int]*remote), staged: make(map[int]*pendingUpdate)}
	for i := range slots {
		rem := slots[i].rem
		if rem == nil {
			continue
		}
		select {
		case rem.roundCh <- directive{round: r, frame: frame}:
			w.expected[i] = rem
			c.core.Broadcast(rs, i)
		default:
			// The previous directive was never consumed — the worker has not
			// pulled since; leave it out of this attempt.
		}
	}
	bSpan.EndDetail(fmt.Sprintf("participants=%d", len(w.expected)))
	if len(w.expected) == 0 {
		if !quorum {
			return false, true, fmt.Errorf("coord: round %d: no live workers", r)
		}
		return false, true, nil
	}

	var deadlineC <-chan time.Time
	if c.cfg.RoundDeadline > 0 {
		t := time.NewTimer(c.cfg.RoundDeadline)
		defer t.Stop()
		deadlineC = t.C
	}

	// Collect. Valid updates are STAGED, not committed: their acks are held
	// until the fold decision, and slot state moves only on commit.
	wantCodec := c.core.Compression()
	// reject drops the worker behind a malformed or poisoned update and keeps
	// the round alive with the rest of the fleet.
	reject := func(e event, why error) {
		e.ackReply <- ackReply{status: AckRejected, drop: true}
		c.co.badUpdates.Inc()
		rs.Rejected++
		c.retire(e.rem, fmt.Errorf("update rejected: %w", why), slots, w)
	}
collect:
	for len(w.expected) > 0 {
		select {
		case e := <-c.events:
			if e.kind != evUpdate {
				c.handleMembership(e, slots, w)
				continue
			}
			i := e.rem.index
			if e.upd.round != r || w.expected[i] != e.rem {
				// A straggler delivering a closed round, or a stale remote.
				e.ackReply <- ackReply{status: AckLate}
				continue
			}
			if e.upd.samples == 0 {
				// An idle worker (empty shard) has nothing to contribute,
				// mirroring the in-process engine's skip of empty updates.
				// Nothing of it enters the fold, so the ack needs no staging.
				delete(w.expected, i)
				w.contributed++
				e.ackReply <- ackReply{status: AckOK}
				continue
			}
			if e.upd.codec != wantCodec {
				// A worker shipping the wrong codec (or skipping the run's
				// compression) is as malformed as a bad tensor shape: the
				// accounting and the negotiated contract both break.
				reject(e, fmt.Errorf("update codec %q, run uses %q", e.upd.codec, wantCodec))
				continue
			}
			u := e.upd.stats
			u.Worker = i
			u.Samples = e.upd.samples
			u.Loss = e.upd.loss
			u.Vecs = e.upd.vecs
			vSpan := tr.Span("validate", r, i)
			err := fleet.ValidateUpdate(c.core.Params(), u)
			vSpan.End()
			if err != nil {
				reject(e, err)
				continue
			}
			w.staged[i] = &pendingUpdate{rem: e.rem, upd: e.upd, update: u, blobBytes: e.blobBytes, ack: e.ackReply}
			w.contributed++
			delete(w.expected, i)
		case <-deadlineC:
			for i := range w.expected {
				rs.Workers[i].Dropped = true
				rs.Dropouts++
				c.cfg.Logf("coord: round %d deadline: worker %s still outstanding, dropped from fold", r, slots[i].name)
			}
			break collect
		case <-c.quit:
			// Handlers parked on their ack replies unblock via c.quit.
			return false, false, ErrClosed
		}
	}

	if quorum && w.contributed < c.cfg.MinWorkers {
		// Below quorum: fold nothing. The staged updates are discarded and
		// their workers told to retry — they rewind to their pre-round
		// optimizer state and retrain the identical round.
		for _, p := range w.staged {
			p.ack <- ackReply{status: AckRetry}
		}
		return false, false, nil
	}

	// Commit: the core folds in ascending slot order — the Aggregator
	// contract's fold order — and books the round; then each contributor's
	// state is durably adopted and the held acks released. An acked worker's
	// state is therefore always the state the fold consumed.
	updates := make([]*fleet.Update, len(slots))
	encoded := make([]int64, len(slots))
	for i, p := range w.staged {
		updates[i], encoded[i] = &p.update, p.blobBytes
	}
	// The fold writes the tensors the last state save views: that save must
	// be durable first, and a failed one fails the run before this commit.
	if c.saver != nil {
		if err := c.saver.Wait(); err != nil {
			return false, false, fmt.Errorf("coord: saving state: %w", err)
		}
	}
	if err := c.core.Commit(rs, updates, encoded); err != nil {
		return false, false, err
	}
	for i := range slots {
		p, ok := w.staged[i]
		if !ok {
			continue
		}
		st := p.upd.state
		st.Index = i
		st.Name = p.rem.name
		slots[i].state = &st
		slots[i].strategy = p.upd.strategy
		slots[i].shardSamples = p.upd.samples
		rs.Workers[i].Duration = p.upd.duration
		p.ack <- ackReply{status: AckOK}
	}
	return true, false, nil
}

// awaitQuorum blocks between round attempts until MinWorkers are live again
// (processing joins, rejoins and deaths meanwhile), bounded by JoinTimeout.
// When the failed attempt was idle — not a single worker could receive the
// broadcast — it first waits for one membership event, so a retry loop can
// never spin without the fleet changing underneath it.
func (c *Coordinator) awaitQuorum(r int, slots []slot, needEvent bool) error {
	deadline := time.NewTimer(c.cfg.JoinTimeout)
	defer deadline.Stop()
	for needEvent || liveCount(slots) < c.cfg.MinWorkers {
		select {
		case e := <-c.events:
			c.handleMembership(e, slots, nil)
			needEvent = false
		case <-deadline.C:
			return fmt.Errorf("coord: round %d: %d/%d workers after waiting %v to retry",
				r, liveCount(slots), c.cfg.MinWorkers, c.cfg.JoinTimeout)
		case <-c.quit:
			return ErrClosed
		}
	}
	return nil
}

// describeWorkers fills the report's per-worker identity columns from the
// slots as they stand: who holds each position, and what its budget selected.
func describeWorkers(rep *fleet.Report, slots []slot) {
	for i := range slots {
		s, sum := &slots[i], &rep.Workers[i]
		sum.Index = i
		sum.Name = s.name
		if sum.Name == "" {
			sum.Name = fmt.Sprintf("slot%d-empty", i)
		}
		sum.Device = s.device
		sum.BudgetBytes = s.budget
		sum.ShardSamples = s.shardSamples
		sum.Strategy = s.strategy
		if sum.Strategy == "" {
			sum.Strategy = "idle"
		}
	}
}
