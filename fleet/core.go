package fleet

import (
	"fmt"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
	"github.com/edgeml/edgetrain/obs/health"
)

// defaultUplinkMbps is the modeled uplink rate when Config.UplinkMbps is
// zero: the Waggle edge node's 10 Mbps.
const defaultUplinkMbps = 10.0

// Core is the round engine under both round loops of the repository: the
// in-process Fleet and the coord package's Coordinator each hold one. It
// owns everything a round does to the global model and to the books — the
// ordered fold, the per-worker statistics, the traffic accounting, the
// report, the round's metric series, the health rules and the global half of
// a durable session — so the two loops cannot drift apart in any of them.
// What differs between the loops stays with them: how participants are
// chosen, how a worker's update travels, and what happens when one does not
// arrive.
//
// A Core is confined to the goroutine that drives the rounds; only
// ActiveAlerts may be called from another.
type Core struct {
	kind       string
	seed       uint64
	batchSize  int
	agg        Aggregator
	spec       compress.Spec
	uplinkMbps float64
	global     *chain.Chain
	params     []*nn.Param
	modelBytes int64
	mon        *health.Monitor
}

// NewCore builds the round core around the global model the factory
// produces. kind labels the run's durable sessions ("fleet", "coord") so one
// loop's checkpoint is never resumed into the other, and names the family of
// its round series (fleet_…, coord_…). Of cfg it reads Aggregator (nil means
// FedAvg), Compression, UplinkMbps (zero means the Waggle node's 10 Mbps),
// Seed and BatchSize.
func NewCore(kind string, cfg Config, model func() (*chain.Chain, error)) (*Core, error) {
	if cfg.Aggregator == nil {
		cfg.Aggregator = NewFedAvg()
	}
	spec, err := compress.ParseSpec(cfg.Compression)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.UplinkMbps < 0 {
		return nil, fmt.Errorf("fleet: uplink rate %v Mbps is negative", cfg.UplinkMbps)
	}
	if cfg.UplinkMbps == 0 {
		cfg.UplinkMbps = defaultUplinkMbps
	}
	if model == nil {
		return nil, fmt.Errorf("fleet: nil model factory")
	}
	global, err := model()
	if err != nil {
		return nil, fmt.Errorf("fleet: building global model: %w", err)
	}
	if global == nil || global.Len() == 0 {
		return nil, fmt.Errorf("fleet: model factory produced an empty chain")
	}
	return &Core{
		kind:       kind,
		seed:       cfg.Seed,
		batchSize:  cfg.BatchSize,
		agg:        cfg.Aggregator,
		spec:       spec,
		uplinkMbps: cfg.UplinkMbps,
		global:     global,
		params:     global.Params(),
		modelBytes: nn.ParamBytes(global.Stages),
		mon:        health.NewMonitor(),
	}, nil
}

// Aggregator returns the run's aggregation mode.
func (c *Core) Aggregator() Aggregator { return c.agg }

// Spec returns the run's parsed update-codec spec.
func (c *Core) Spec() compress.Spec { return c.spec }

// Compression returns the spec in its canonical form, the string a worker's
// update declares and the report shows; empty when updates ship uncompressed.
func (c *Core) Compression() string {
	if !c.spec.Enabled() {
		return ""
	}
	return c.spec.String()
}

// Global returns the global model the rounds update.
func (c *Core) Global() *chain.Chain { return c.global }

// Params returns the global model's parameters, the order every update
// payload and every broadcast follows.
func (c *Core) Params() []*nn.Param { return c.params }

// BeginRound starts the statistics of one round over a fleet of the given
// size.
func (c *Core) BeginRound(round, workers int) RoundStats {
	rs := RoundStats{Round: round, Workers: make([]WorkerRoundStats, workers)}
	for i := range rs.Workers {
		rs.Workers[i].Worker = i
	}
	return rs
}

// Broadcast accounts one delivery of the global parameters to a worker. A
// round re-broadcast after a failed attempt counts again: those bytes moved.
func (c *Core) Broadcast(rs *RoundStats, worker int) {
	ws := &rs.Workers[worker]
	ws.Participated = true
	ws.DownloadBytes += c.modelBytes
	rs.DownlinkBytes += c.modelBytes
}

// Commit folds the round's contributions into the global model and books
// them. updates is indexed by worker — nil, or zero samples, where a worker
// contributed nothing — so the fold runs in ascending worker order, the
// order the Aggregator contract fixes, however the updates arrived. encoded
// holds, under a codec spec, the size of the blob each update was decoded
// from; without one it is not read. The fold validates every update before
// it changes anything (Aggregator.Fold), so an error leaves the global model
// as it was.
func (c *Core) Commit(rs *RoundStats, updates []*Update, encoded []int64) error {
	var folded []Update
	var maxUpload int64
	var samples, lossSum float64
	for i, u := range updates {
		if u == nil || u.Samples == 0 {
			continue
		}
		ws := &rs.Workers[i]
		ws.Samples = u.Samples
		ws.Loss = u.Loss
		ws.Usage = u.Usage
		upload := c.modelBytes
		if c.spec.Enabled() {
			upload = encoded[i]
		}
		ws.UploadBytes = upload
		ws.RawUploadBytes = c.modelBytes
		rs.UplinkBytes += upload
		rs.RawUplinkBytes += c.modelBytes
		maxUpload = max(maxUpload, upload)
		samples += float64(u.Samples)
		lossSum += float64(u.Samples) * u.Loss
		rs.Participants++
		f := *u
		f.Worker = i
		folded = append(folded, f)
	}
	// Fold is never called with an empty set: a round in which nobody
	// contributed leaves the global model untouched.
	if len(folded) > 0 {
		fSpan := obs.DefaultTracer().Span("fold", rs.Round, -1)
		err := c.agg.Fold(c.params, folded)
		fSpan.EndErr(err)
		if err != nil {
			return fmt.Errorf("fleet: round %d: %s fold: %w", rs.Round, c.agg.Name(), err)
		}
	}
	// The round's loss is the sample-weighted mean of the folded updates';
	// its upload phase on the modeled link is bounded by the largest upload,
	// which a synchronous round waits for.
	if samples > 0 {
		rs.Loss = lossSum / samples
	}
	rs.ModeledUplink = time.Duration(float64(maxUpload) * 8 / (c.uplinkMbps * 1e6) * float64(time.Second))
	return nil
}

// NewReport opens a run's report: the header this core knows (aggregation
// mode, update size, codec spec, uplink rate) over the caller's per-worker
// summaries, one per fleet position.
func (c *Core) NewReport(workers []WorkerSummary) *Report {
	return &Report{
		Aggregator:  c.agg.Name(),
		ModelBytes:  c.modelBytes,
		Compression: c.Compression(),
		UplinkMbps:  c.uplinkMbps,
		Workers:     workers,
	}
}

// Finish closes a committed round: it folds the round into the report,
// publishes the round's metric series, evaluates the training-health rules
// against it and returns the alerts the round fired (also appended to the
// report). A per-worker series is labeled with the name rep.Workers holds for
// that position, so a caller whose positions change hands names them first.
func (c *Core) Finish(rep *Report, rs RoundStats) []health.Alert {
	rep.add(rs)
	c.publish(rep, &rs)
	alerts := c.mon.ObserveRound(rs.healthStats())
	rep.Alerts = append(rep.Alerts, alerts...)
	return alerts
}

// publish books one committed round on the process-default registry (nothing
// when observability is off), in the family the core's kind names: fleet_…
// for the in-process engine, coord_… for the coordinator. It adds exactly the
// RoundStats fields Report.add accumulates, so a final scrape agrees with the
// end-of-run report, worker rows included. A worker's labeled series appear
// once it took part in a round: received the broadcast or moved wire bytes.
func (c *Core) publish(rep *Report, rs *RoundStats) {
	r := obs.Default()
	if r == nil {
		return
	}
	p := c.kind + "_"
	r.Counter(p+"rounds_committed_total", "Rounds whose fold committed (the report's round count).").Inc()
	r.Counter(p+"participants_total", "Updates folded into committed rounds.").Add(int64(rs.Participants))
	r.Counter(p+"dropouts_total", "Selected workers whose update never reached a committed fold.").Add(int64(rs.Dropouts))
	r.Counter(p+"uplink_bytes_total", "Committed update bytes (post-compression), as the report accounts them.").Add(rs.UplinkBytes)
	r.Counter(p+"raw_uplink_bytes_total", "Committed update bytes at their uncompressed size.").Add(rs.RawUplinkBytes)
	r.Counter(p+"downlink_bytes_total", "Broadcast bytes sent to round participants.").Add(rs.DownlinkBytes)
	r.Gauge(p+"compression_ratio", "Raw/encoded uplink ratio over the report's rounds (1 with compression off).").Set(rep.CompressionRatio())
	r.Histogram(p+"round_seconds", "Wall-clock time of one committed round, broadcast through fold (retry attempts included).", nil).
		Observe(rs.WallClock.Seconds())
	local := r.Histogram(p+"local_train_seconds", "Local training time behind one folded update.", nil)
	wire := r.Counter(p+"wire_bytes_total", "Measured transport bytes, both directions (zero for in-process rounds).")
	for i := range rs.Workers {
		ws := &rs.Workers[i]
		wire.Add(ws.WireBytes)
		if ws.Samples > 0 {
			local.Observe(ws.Duration.Seconds())
		}
		if !ws.Participated && ws.WireBytes == 0 {
			continue
		}
		wl := obs.L("worker", rep.Workers[i].Name)
		if ws.Samples > 0 {
			r.CounterWith(p+"worker_rounds_total", "Rounds whose fold included this worker's update.", wl).Inc()
		}
		if ws.Dropped {
			r.CounterWith(p+"worker_dropouts_total", "Rounds this worker was selected for but lost to dropout.", wl).Inc()
		}
		r.CounterWith(p+"worker_upload_bytes_total", "Committed update bytes from this worker (post-compression).", wl).Add(ws.UploadBytes)
		r.CounterWith(p+"worker_download_bytes_total", "Broadcast bytes sent to this worker.", wl).Add(ws.DownloadBytes)
		r.CounterWith(p+"worker_wire_bytes_total", "Measured transport bytes moved with this worker, both directions.", wl).Add(ws.WireBytes)
	}
}

// ActiveAlerts returns the alerts the most recently finished round fired;
// non-empty means /healthz should degrade. Safe for concurrent use.
func (c *Core) ActiveAlerts() []health.Alert { return c.mon.Active() }

// globalOptimizer returns the optimizer the aggregator applies to the global
// model, whose state must survive a restart, or nil when it keeps none.
func (c *Core) globalOptimizer() trainer.Optimizer {
	if a, ok := c.agg.(*GradAllReduce); ok {
		return a.Opt
	}
	return nil
}

// SessionView assembles the global half of the run's durable state with the
// given next-round cursor: kind, seed, batch size, parameters, layer state
// and the aggregator's global optimizer. Parameters and optimizer slots are
// views of the global model, valid until the next Commit, the only writer of
// them; the caller appends its worker records.
func (c *Core) SessionView(nextRound int) (*ckpt.Session, error) {
	s := &ckpt.Session{
		Kind:           c.kind,
		LibraryVersion: ckpt.LibraryVersion,
		Round:          nextRound,
		BatchSize:      c.batchSize,
		Seed:           c.seed,
		Params:         ckpt.ParamTensors(c.params),
		LayerState:     ckpt.CaptureLayerState(c.global.Stages),
	}
	if opt := c.globalOptimizer(); opt != nil {
		st, err := trainer.OptimizerStateView(opt, c.params)
		if err != nil {
			return nil, fmt.Errorf("fleet: global optimizer state: %w", err)
		}
		s.Opt = st
	}
	return s, nil
}

// RestoreSession applies the global half of a loaded session: parameters,
// layer state and the global optimizer's state. Every check comes before the
// first write, so a refused session leaves the model untouched; a caller
// with checks of its own (worker optimizer kinds, the round cursor) makes
// them before calling.
func (c *Core) RestoreSession(s *ckpt.Session) error {
	if s.Kind != c.kind {
		return fmt.Errorf("fleet: checkpoint kind is %q, want %q", s.Kind, c.kind)
	}
	if s.Seed != c.seed {
		// The per-round generators and the workers' datasets derive from the
		// seed alone; resuming under a different one would silently leave
		// the original trajectory.
		return fmt.Errorf("fleet: checkpoint was written with seed %d, this run is configured with seed %d", s.Seed, c.seed)
	}
	if s.BatchSize != c.batchSize {
		// Workers visit their shard's batches round-robin by the local batch
		// size, so resuming under a different one silently changes which
		// samples the remaining rounds train on.
		return fmt.Errorf("fleet: checkpoint was written with batch size %d, this run is configured with %d", s.BatchSize, c.batchSize)
	}
	opt := c.globalOptimizer()
	if opt == nil && (s.Opt.Name != "" || s.Opt.Step != 0 || len(s.Opt.Slots) > 0) {
		// A checkpoint written by an aggregator with a global optimizer
		// (all-reduce) cannot be resumed into one without — dropping that
		// state would silently change the trajectory.
		return fmt.Errorf("fleet: checkpoint carries global %q optimizer state but aggregator %q has no global optimizer",
			s.Opt.Name, c.agg.Name())
	}
	if opt != nil && s.Opt.Name != opt.Name() {
		return fmt.Errorf("fleet: checkpoint has global %q optimizer state but aggregator %q uses %q",
			s.Opt.Name, c.agg.Name(), opt.Name())
	}
	if err := s.ApplyParams(c.params); err != nil {
		return err
	}
	if err := s.ApplyLayerState(c.global.Stages); err != nil {
		return err
	}
	if opt != nil {
		if err := trainer.RestoreOptimizerState(opt, c.params, s.Opt); err != nil {
			return fmt.Errorf("fleet: restoring global optimizer state: %w", err)
		}
	}
	return nil
}
