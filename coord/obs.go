package coord

import (
	"github.com/edgeml/edgetrain/obs"
	"github.com/edgeml/edgetrain/obs/health"
)

// coordObs bundles the coordinator's own metric handles: round attempts,
// membership, transport and telemetry ingest. It is always non-nil on a
// Coordinator; with observability disabled every handle is nil and each
// recording call is a nil-receiver no-op. A committed round's series
// (coord_rounds_committed_total, the byte counters, the per-worker rows) are
// published by fleet.Core.Finish, from the stats the report accumulates.
type coordObs struct {
	roundsStarted *obs.Counter
	roundRetries  *obs.Counter

	joined     *obs.Counter
	rejoined   *obs.Counter
	dropped    *obs.Counter
	rejected   *obs.Counter // handshake failures
	badUpdates *obs.Counter // updates rejected during collection
	heartbeats *obs.Counter

	stagedBytes *obs.Counter

	telemetryFrames  *obs.Counter
	telemetrySamples *obs.Counter
	telemetryEvents  *obs.Counter

	liveWorkers *obs.Gauge
	roundCursor *obs.Gauge
}

func newCoordObs() *coordObs {
	co := &coordObs{}
	r := obs.Default()
	if r == nil {
		return co
	}
	co.roundsStarted = r.Counter("coord_rounds_started_total", "Aggregation rounds the coordinator began driving.")
	co.roundRetries = r.Counter("coord_round_retries_total", "Round attempts discarded below quorum and re-broadcast.")
	co.joined = r.Counter("coord_workers_joined_total", "Workers seated by a successful handshake (first joins).")
	co.rejoined = r.Counter("coord_workers_rejoined_total", "Workers that reclaimed their slot after a reconnect.")
	co.dropped = r.Counter("coord_workers_dropped_total", "Workers that left, died or were dropped mid-round.")
	co.rejected = r.Counter("coord_handshake_failures_total", "Hellos refused (version, codec, name or capacity).")
	co.badUpdates = r.Counter("coord_updates_rejected_total", "Staged updates rejected (wrong codec or failed validation).")
	co.heartbeats = r.Counter("coord_heartbeats_total", "Heartbeat frames received from workers.")
	co.stagedBytes = r.Counter("coord_staged_update_bytes_total", "Update payload bytes received for staging (retries included).")
	co.telemetryFrames = r.Counter("coord_telemetry_frames_total", "Telemetry shipments ingested from worker heartbeats and updates.")
	co.telemetrySamples = r.Counter("coord_telemetry_samples_total", "Metric delta samples ingested from worker telemetry.")
	co.telemetryEvents = r.Counter("coord_telemetry_events_total", "Trace events ingested from worker telemetry.")
	co.liveWorkers = r.Gauge("coord_live_workers", "Currently connected workers.")
	co.roundCursor = r.Gauge("coord_round", "Round the run loop is currently driving.")
	return co
}

// ingestTelemetry folds one worker shipment into the process registry and
// tracer: samples land under a worker=<name> label, events are re-tagged
// with the worker's authoritative slot and marked remote. Runs on the
// connection's handler goroutine, off the run loop.
func (c *Coordinator) ingestTelemetry(rem *remote, tm *telemetry) {
	if tm == nil {
		return
	}
	c.co.telemetryFrames.Inc()
	c.co.telemetrySamples.Add(int64(len(tm.samples)))
	c.co.telemetryEvents.Add(int64(len(tm.events)))
	obs.Default().Ingest(tm.samples, obs.L("worker", rem.name))
	if tr := obs.DefaultTracer(); tr != nil {
		for _, e := range tm.events {
			// The slot the coordinator seated this worker in wins over
			// whatever the worker tagged locally: lanes in the stitched
			// trace follow fleet slots.
			e.Worker = rem.index
			e.Remote = true
			tr.Record(e)
		}
	}
}

// noteLive refreshes the live-worker gauge and the /healthz cursor.
func (c *Coordinator) noteLive(slots []slot) {
	n := int64(liveCount(slots))
	c.healthLive.Store(n)
	c.co.liveWorkers.Set(float64(n))
}

// Health reports the run's live position for the /healthz endpoint: the
// round the run loop is driving, the configured total, and the number of
// connected workers. When the health monitor's most recent round fired
// alerts, the payload degrades (HTTP 503) with the reasons, and recovers
// as soon as a clean round commits.
func (c *Coordinator) Health() obs.Health {
	status := "running"
	select {
	case <-c.done:
		status = "done"
	default:
	}
	h := obs.Health{
		Status:      status,
		Round:       int(c.healthRound.Load()),
		Rounds:      c.cfg.Rounds,
		LiveWorkers: int(c.healthLive.Load()),
	}
	if active := c.core.ActiveAlerts(); len(active) > 0 {
		h.Degraded = true
		h.Alerts = health.Reasons(active)
		if status == "running" {
			h.Status = "alerting"
		}
	}
	return h
}
