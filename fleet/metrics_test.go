package fleet

import (
	"strings"
	"testing"

	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/obs"
)

// TestFinishPublishesTheReport pins the in-process engine's round series to
// its report: with partial participation, dropout and a lossy codec, every
// fleet_* counter Core.Finish books equals the report total it mirrors, and
// every worker row equals its worker-labeled series.
func TestFinishPublishesTheReport(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("observability enabled at test entry")
	}
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	w := WorkerSpec{Device: device.Waggle()}
	rep, _ := runFleet(t, Config{
		Workers:       []WorkerSpec{w, w, w, w},
		Rounds:        6,
		Seed:          13,
		Participation: 0.5,
		DropoutRate:   0.4,
		Compression:   "int8+deflate",
	}, mlpFactory(9), makeDataset(16, 6))

	series := map[string]obs.Sample{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		for _, l := range s.Labels {
			key += "{" + l.Key + "=" + l.Value + "}"
		}
		series[key] = s
	}
	value := func(key string) float64 { return series[key].Value }

	var participants, dropouts int
	for _, rs := range rep.Rounds {
		participants += rs.Participants
		dropouts += rs.Dropouts
	}
	if dropouts == 0 || rep.CompressionRatio() <= 1 {
		t.Fatalf("vacuous run: %d dropouts, compression ratio %v", dropouts, rep.CompressionRatio())
	}
	for key, want := range map[string]float64{
		"fleet_rounds_committed_total": float64(len(rep.Rounds)),
		"fleet_participants_total":     float64(participants),
		"fleet_dropouts_total":         float64(dropouts),
		"fleet_uplink_bytes_total":     float64(rep.TotalUplinkBytes),
		"fleet_raw_uplink_bytes_total": float64(rep.TotalRawUplinkBytes),
		"fleet_downlink_bytes_total":   float64(rep.TotalDownlinkBytes),
		"fleet_wire_bytes_total":       0,
		"fleet_compression_ratio":      rep.CompressionRatio(),
	} {
		if _, ok := series[key]; !ok {
			t.Fatalf("%s not published", key)
		}
		if got := value(key); got != want {
			t.Errorf("%s = %v, report says %v", key, got, want)
		}
	}
	if got := series["fleet_round_seconds"].Count; got != int64(len(rep.Rounds)) {
		t.Errorf("fleet_round_seconds holds %d rounds, report %d", got, len(rep.Rounds))
	}
	if got := series["fleet_local_train_seconds"].Count; got != int64(participants) {
		t.Errorf("fleet_local_train_seconds holds %d updates, report %d", got, participants)
	}
	for _, ws := range rep.Workers {
		label := "{worker=" + ws.Name + "}"
		for name, want := range map[string]int64{
			"fleet_worker_rounds_total":         int64(ws.Rounds),
			"fleet_worker_dropouts_total":       int64(ws.Dropped),
			"fleet_worker_upload_bytes_total":   ws.UploadBytes,
			"fleet_worker_download_bytes_total": ws.DownloadBytes,
		} {
			if got := value(name + label); got != float64(want) {
				t.Errorf("%s%s = %v, report row says %d", name, label, got, want)
			}
		}
	}
	for key := range series {
		if strings.HasPrefix(key, "coord_") {
			t.Errorf("in-process run published %s", key)
		}
	}
}
