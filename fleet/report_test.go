package fleet

import (
	"strings"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/obs/health"
)

// TestReportRenderGolden pins the report's rendered layout, including the
// bytes-on-wire and round wall-clock columns, against a fixed report.
func TestReportRenderGolden(t *testing.T) {
	rep := &Report{
		Aggregator: "fedavg",
		ModelBytes: 1_500_000,
		Workers: []WorkerSummary{
			{
				Index: 0, Name: "w0-waggle", Device: "waggle", BudgetBytes: 2_000_000_000,
				ShardSamples: 128, Strategy: "storeall",
			},
			{
				Index: 1, Name: "w1-raspberrypi3b", Device: "raspberrypi3b", BudgetBytes: 1_000_000_000,
				ShardSamples: 128, Strategy: "revolve",
			},
		},
	}
	rep.add(RoundStats{
		Round: 0, Participants: 2, Loss: 2.3026,
		UplinkBytes: 3_000_000, DownlinkBytes: 3_000_000,
		WallClock: 1503 * time.Millisecond,
		Workers: []WorkerRoundStats{
			{Worker: 0, Participated: true, Samples: 128, PeakRAMBytes: 4_200_000, DiskWrites: 3, DiskReads: 3, UploadBytes: 1_500_000, DownloadBytes: 1_500_000, WireBytes: 3_100_000},
			{Worker: 1, Participated: true, Samples: 128, PeakRAMBytes: 1_100_000, PeakDiskBytes: 900_000, DiskWrites: 7, DiskReads: 7, UploadBytes: 1_500_000, DownloadBytes: 1_500_000, WireBytes: 3_100_000},
		},
	})
	rep.add(RoundStats{
		Round: 1, Participants: 1, Dropouts: 1, Loss: 1.9311,
		UplinkBytes: 1_500_000, DownlinkBytes: 3_000_000,
		WallClock: 1287*time.Millisecond + 400*time.Microsecond,
		Workers: []WorkerRoundStats{
			{Worker: 0, Participated: true, Samples: 128, PeakRAMBytes: 4_200_000, DiskWrites: 3, DiskReads: 3, UploadBytes: 1_500_000, DownloadBytes: 1_500_000, WireBytes: 3_100_000},
			{Worker: 1, Participated: true, Dropped: true, DownloadBytes: 1_500_000, WireBytes: 1_550_000},
		},
	})

	want := "fleet training report: fedavg, 2 workers, 2 rounds, 1.50 MB model updates\n" +
		"worker                device               budget (MB)   shard    strategy  peak RAM (MB)  flash (MB)   writes   reads   wire (MB)\n" +
		"w0-waggle             waggle                   2000.00     128    storeall          4.200       0.000        6       6        6.20\n" +
		"w1-raspberrypi3b      raspberrypi3b            1000.00     128     revolve          1.100       0.900        7       7        4.65\n" +
		"round       participants    dropouts      loss   uplink (MB)   downlink (MB)   wall (ms)\n" +
		"0                      2           0    2.3026          3.00            3.00      1503.0\n" +
		"1                      1           1    1.9311          1.50            3.00      1287.4\n" +
		"round wall-clock: min 1287.4 ms, p50 1287.4 ms, p95 1503.0 ms, max 1503.0 ms\n" +
		"totals: uplink 4.50 MB, downlink 6.00 MB, wire 10.85 MB, final loss 1.9311\n"

	got := rep.Render()
	if got != want {
		t.Fatalf("Render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	if rep.TotalWireBytes != 10_850_000 {
		t.Fatalf("TotalWireBytes = %d, want 10850000", rep.TotalWireBytes)
	}
	if rep.Workers[0].WireBytes != 6_200_000 || rep.Workers[1].WireBytes != 4_650_000 {
		t.Fatalf("per-worker WireBytes = %d, %d", rep.Workers[0].WireBytes, rep.Workers[1].WireBytes)
	}

	// A report with no completed rounds omits the wall-clock spread line.
	empty := &Report{Aggregator: "fedavg"}
	if out := empty.Render(); strings.Contains(out, "round wall-clock") {
		t.Fatalf("empty report rendered a wall-clock line:\n%s", out)
	}
}

// TestReportRenderAlerts pins the ALERTS section: absent on healthy runs
// (the golden above has no ALERTS line) and rendered one alert per line
// when the monitor fired.
func TestReportRenderAlerts(t *testing.T) {
	rep := &Report{Aggregator: "fedavg"}
	rep.Alerts = []health.Alert{
		{Rule: "loss-divergence", Round: 3, Detail: "loss 9.1200 > 2x best 1.1000"},
		{Rule: "worker-flap", Round: 4, Detail: "2 rejoins since the previous round"},
	}
	out := rep.Render()
	want := "ALERTS (2):\n" +
		"  round 3: loss-divergence: loss 9.1200 > 2x best 1.1000\n" +
		"  round 4: worker-flap: 2 rejoins since the previous round\n"
	if !strings.HasSuffix(out, want) {
		t.Fatalf("ALERTS section mismatch:\n--- got ---\n%s--- want suffix ---\n%s", out, want)
	}
}
