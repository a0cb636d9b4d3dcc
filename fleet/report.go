package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/edgeml/edgetrain/obs/health"
	"github.com/edgeml/edgetrain/plan"
)

// WorkerRoundStats reports one worker's share of one round.
type WorkerRoundStats struct {
	Worker       int
	Participated bool // selected for the round (received the broadcast)
	Dropped      bool // selected but failed before uploading
	Samples      int  // samples behind the worker's update (0 = no contribution)
	Loss         float64
	Delay        time.Duration // injected straggler delay
	Duration     time.Duration // wall-clock of the local computation

	// Execution cost of the local computation.
	ForwardEvals  int
	BackwardEvals int
	PeakStates    int
	PeakRAMBytes  int64 // peak retained-state bytes in RAM (excl. weights)
	PeakDiskBytes int64 // peak flash-resident checkpoint bytes
	DiskWrites    int
	DiskReads     int

	// Modeled traffic of the round for this worker. With compression
	// enabled, UploadBytes is the encoded blob size actually shipped and
	// RawUploadBytes the full fp64 update it replaced; otherwise the two
	// are equal.
	UploadBytes    int64
	RawUploadBytes int64
	DownloadBytes  int64

	// WireBytes is the worker's measured bytes on the wire for the round —
	// framed protocol bytes actually moved by a coord transport, both
	// directions. Zero for in-process fleet runs, which move no bytes.
	WireBytes int64
}

// RoundStats reports one aggregation round.
type RoundStats struct {
	Round        int
	Participants int // workers whose update was folded
	Dropouts     int // selected workers that failed before uploading
	Rejected     int // updates rejected (failed validation or wrong codec)
	Retries      int // attempts discarded below quorum before the commit
	Flaps        int // worker rejoin events since the previous round
	Loss         float64
	UplinkBytes  int64
	// RawUplinkBytes is what the round's uploads would have cost
	// uncompressed (equal to UplinkBytes when compression is off).
	RawUplinkBytes int64
	DownlinkBytes  int64
	// ModeledUplink is how long the round's largest upload would take at
	// the configured uplink rate — the upload-phase bound of a synchronous
	// round on the modeled link.
	ModeledUplink time.Duration
	// WallClock is the round's wall-clock time, broadcast through fold.
	WallClock time.Duration
	Workers   []WorkerRoundStats // index-aligned with the fleet's workers
}

// healthStats maps one round's stats onto the health monitor's view.
func (rs *RoundStats) healthStats() health.Stats {
	s := health.Stats{
		Round:        rs.Round,
		Loss:         rs.Loss,
		Participants: rs.Participants,
		Dropouts:     rs.Dropouts,
		Rejected:     rs.Rejected,
		Retries:      rs.Retries,
		Flaps:        rs.Flaps,
		WallClock:    rs.WallClock,
	}
	for i := range rs.Workers {
		if ws := &rs.Workers[i]; ws.Samples > 0 {
			s.LocalDur = append(s.LocalDur, ws.Duration)
		}
	}
	return s
}

// WorkerSummary aggregates one worker over a whole run.
type WorkerSummary struct {
	Index        int
	Name         string
	Device       string
	BudgetBytes  int64
	ShardSamples int
	// Strategy is the checkpoint strategy the worker's budget auto-selected
	// ("storeall", "revolve", "twolevel"; "idle" for an empty shard).
	Strategy string
	// Choice carries the full auto-selection (slots, predicted footprint).
	Choice plan.AutoChoice

	Rounds         int // rounds whose fold included this worker
	Dropped        int // rounds lost to dropout
	PeakRAMBytes   int64
	PeakDiskBytes  int64
	DiskWrites     int
	DiskReads      int
	UploadBytes    int64
	RawUploadBytes int64
	DownloadBytes  int64
	// WireBytes is the worker's total measured bytes on the wire (zero for
	// in-process runs).
	WireBytes int64
}

// Report is the measured outcome of a fleet run.
type Report struct {
	Aggregator    string
	ModelBytes    int64 // one full-model update on the wire
	Participation float64
	// Compression is the canonical update-codec spec of the run ("" when
	// compression is off), and UplinkMbps the modeled uplink rate behind
	// ModeledUplink.
	Compression string
	UplinkMbps  float64
	Workers     []WorkerSummary
	Rounds      []RoundStats
	// Alerts is every training-health alert the run's monitor fired, in
	// firing order (empty for a healthy run).
	Alerts []health.Alert

	TotalUplinkBytes int64
	// TotalRawUplinkBytes is the run's uplink cost had every update shipped
	// uncompressed (equal to TotalUplinkBytes when compression is off).
	TotalRawUplinkBytes int64
	TotalDownlinkBytes  int64
	// TotalWireBytes is the run's total measured bytes on the wire (zero for
	// in-process runs).
	TotalWireBytes int64
	// ModeledUplink is the summed per-round modeled upload time.
	ModeledUplink time.Duration
	FinalLoss     float64
}

// CompressionRatio is the run's raw-to-encoded uplink ratio (1 when
// compression is off or nothing was uploaded).
func (rep *Report) CompressionRatio() float64 {
	if rep.TotalUplinkBytes <= 0 || rep.TotalRawUplinkBytes <= 0 {
		return 1
	}
	return float64(rep.TotalRawUplinkBytes) / float64(rep.TotalUplinkBytes)
}

// newReport pre-fills the per-worker summaries from the fleet configuration.
func (f *Fleet) newReport() *Report {
	workers := make([]WorkerSummary, len(f.workers))
	for i, w := range f.workers {
		strategy := w.Choice.Strategy
		if w.Shard.Len() == 0 {
			strategy = "idle"
		}
		workers[i] = WorkerSummary{
			Index:        w.Index,
			Name:         w.Spec.Name,
			Device:       w.Spec.Device.Name,
			BudgetBytes:  w.Spec.BudgetBytes,
			ShardSamples: w.Shard.Len(),
			Strategy:     strategy,
			Choice:       w.Choice,
		}
	}
	rep := f.core.NewReport(workers)
	rep.Participation = f.cfg.Participation
	return rep
}

// add folds one round into the report, accumulating the per-worker
// summaries and run totals.
func (rep *Report) add(rs RoundStats) {
	rep.Rounds = append(rep.Rounds, rs)
	rep.TotalUplinkBytes += rs.UplinkBytes
	rep.TotalRawUplinkBytes += rs.RawUplinkBytes
	rep.TotalDownlinkBytes += rs.DownlinkBytes
	rep.ModeledUplink += rs.ModeledUplink
	if rs.Participants > 0 {
		rep.FinalLoss = rs.Loss
	}
	for i := range rs.Workers {
		ws := &rs.Workers[i]
		sum := &rep.Workers[i]
		if ws.Samples > 0 {
			sum.Rounds++
		}
		if ws.Dropped {
			sum.Dropped++
		}
		sum.PeakRAMBytes = max(sum.PeakRAMBytes, ws.PeakRAMBytes)
		sum.PeakDiskBytes = max(sum.PeakDiskBytes, ws.PeakDiskBytes)
		sum.DiskWrites += ws.DiskWrites
		sum.DiskReads += ws.DiskReads
		sum.UploadBytes += ws.UploadBytes
		sum.RawUploadBytes += ws.RawUploadBytes
		sum.DownloadBytes += ws.DownloadBytes
		sum.WireBytes += ws.WireBytes
		rep.TotalWireBytes += ws.WireBytes
	}
}

func mb(b int64) float64 { return float64(b) / 1e6 }

// wallClockSummary returns the min/p50/p95/max of the rounds' wall-clock
// times. Percentiles use the nearest-rank method on the sorted durations;
// callers must ensure at least one round exists.
func (rep *Report) wallClockSummary() (mn, p50, p95, mx time.Duration) {
	ds := make([]time.Duration, 0, len(rep.Rounds))
	for _, rs := range rep.Rounds {
		ds = append(ds, rs.WallClock)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := func(p float64) time.Duration {
		i := int(math.Ceil(p*float64(len(ds)))) - 1
		if i < 0 {
			i = 0
		}
		return ds[i]
	}
	return ds[0], rank(0.50), rank(0.95), ds[len(ds)-1]
}

// Render formats the report as the fleet counterpart of edgesim.Render.
func (rep *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet training report: %s, %d workers, %d rounds, %.2f MB model updates\n",
		rep.Aggregator, len(rep.Workers), len(rep.Rounds), mb(rep.ModelBytes))
	fmt.Fprintf(&b, "%-22s%-20s%12s%8s%12s%15s%12s%9s%8s%12s\n",
		"worker", "device", "budget (MB)", "shard", "strategy", "peak RAM (MB)", "flash (MB)", "writes", "reads", "wire (MB)")
	for _, w := range rep.Workers {
		fmt.Fprintf(&b, "%-22s%-20s%12.2f%8d%12s%15.3f%12.3f%9d%8d%12.2f\n",
			w.Name, w.Device, mb(w.BudgetBytes), w.ShardSamples, w.Strategy,
			mb(w.PeakRAMBytes), mb(w.PeakDiskBytes), w.DiskWrites, w.DiskReads, mb(w.WireBytes))
	}
	fmt.Fprintf(&b, "%-10s%14s%12s%10s%14s%16s%12s\n",
		"round", "participants", "dropouts", "loss", "uplink (MB)", "downlink (MB)", "wall (ms)")
	for _, rs := range rep.Rounds {
		fmt.Fprintf(&b, "%-10d%14d%12d%10.4f%14.2f%16.2f%12.1f\n",
			rs.Round, rs.Participants, rs.Dropouts, rs.Loss, mb(rs.UplinkBytes), mb(rs.DownlinkBytes),
			float64(rs.WallClock)/float64(time.Millisecond))
	}
	// Round wall-clock spread: straggler impact at a glance, without
	// reading every row. Omitted for empty reports.
	if len(rep.Rounds) > 0 {
		mn, p50, p95, mx := rep.wallClockSummary()
		fmt.Fprintf(&b, "round wall-clock: min %.1f ms, p50 %.1f ms, p95 %.1f ms, max %.1f ms\n",
			float64(mn)/float64(time.Millisecond), float64(p50)/float64(time.Millisecond),
			float64(p95)/float64(time.Millisecond), float64(mx)/float64(time.Millisecond))
	}
	fmt.Fprintf(&b, "totals: uplink %.2f MB, downlink %.2f MB, wire %.2f MB, final loss %.4f\n",
		mb(rep.TotalUplinkBytes), mb(rep.TotalDownlinkBytes), mb(rep.TotalWireBytes), rep.FinalLoss)
	// The compression line appears only on compressed runs, so uncompressed
	// reports render byte-identically to earlier releases.
	if rep.Compression != "" && rep.Compression != "none" {
		fmt.Fprintf(&b, "compression: %s, raw uplink %.2f MB -> %.2f MB (%.1fx), modeled upload %.2f s at %g Mbps\n",
			rep.Compression, mb(rep.TotalRawUplinkBytes), mb(rep.TotalUplinkBytes),
			rep.CompressionRatio(), rep.ModeledUplink.Seconds(), rep.UplinkMbps)
	}
	// The ALERTS section appears only when the run's health monitor fired,
	// so healthy reports render byte-identically to earlier releases.
	if len(rep.Alerts) > 0 {
		fmt.Fprintf(&b, "ALERTS (%d):\n", len(rep.Alerts))
		for _, a := range rep.Alerts {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	return b.String()
}
