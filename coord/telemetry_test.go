package coord

// Protocol v3 telemetry tests: wire round trip, handshake rejection of
// old-version workers, end-to-end shipping over the loopback transport,
// and /healthz degradation when the monitor's last round alerted.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/wire"
	"github.com/edgeml/edgetrain/obs"
)

func TestTelemetryRoundTrip(t *testing.T) {
	in := sampleTelemetry()
	got, err := parseTelemetry(encodeTelemetry(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("telemetry round trip changed:\n got %+v\nwant %+v", got, in)
	}
	// Empty shipment round-trips too.
	empty := telemetry{round: 7}
	got, err = parseTelemetry(encodeTelemetry(empty))
	if err != nil {
		t.Fatal(err)
	}
	if got.round != 7 || len(got.samples) != 0 || len(got.events) != 0 {
		t.Fatalf("empty telemetry round trip changed: %+v", got)
	}
}

// encodeRawSamplePayload hand-writes a one-sample telemetry payload so
// the test can produce shapes encodeTelemetry refuses to emit.
func encodeRawSamplePayload(kind uint32, nbounds, nbuckets int) []byte {
	var b bytes.Buffer
	wire.PutInt64(&b, 0)     // round
	wire.PutUint32(&b, 1)    // one sample
	wire.PutString(&b, "h")  // name
	wire.PutString(&b, "")   // help
	wire.PutUint32(&b, kind) // kind
	wire.PutUint32(&b, 0)    // no labels
	wire.PutFloat64(&b, 1)   // value
	wire.PutInt64(&b, 1)     // count
	wire.PutUint32(&b, uint32(nbounds))
	for i := 0; i < nbounds; i++ {
		wire.PutFloat64(&b, float64(i+1))
	}
	wire.PutUint32(&b, uint32(nbuckets))
	for i := 0; i < nbuckets; i++ {
		wire.PutInt64(&b, 1)
	}
	wire.PutUint32(&b, 0) // no events
	return b.Bytes()
}

func TestTelemetryRejectsMalformedSamples(t *testing.T) {
	if _, err := parseTelemetry(encodeRawSamplePayload(2, 2, 2)); err != nil {
		t.Fatalf("well-formed histogram rejected: %v", err)
	}
	if _, err := parseTelemetry(encodeRawSamplePayload(2, 2, 1)); err == nil ||
		!strings.Contains(err.Error(), "buckets") {
		t.Fatalf("bucket/bound mismatch accepted (err=%v)", err)
	}
	if _, err := parseTelemetry(encodeRawSamplePayload(9, 0, 0)); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Fatalf("unknown sample kind accepted (err=%v)", err)
	}
}

// TestV2WorkerRejected pins the chosen compatibility policy: a worker
// speaking protocol v2 is cleanly rejected at the handshake with an error
// naming both versions, rather than served without telemetry.
func TestV2WorkerRejected(t *testing.T) {
	c, err := New(Config{Workers: 1, Rounds: 1, Samples: 4, Seed: eqSeed}, testModel(eqSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := NewLoopback()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encodeHello(hello{
		version: 2, name: "old-worker",
	})); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != msgError {
		t.Fatalf("v2 hello answered with %s, want error", msgName(f.Type))
	}
	msg, err := parseError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "protocol version 2") || !strings.Contains(msg, fmt.Sprint(ProtocolVersion)) {
		t.Fatalf("rejection does not name the versions: %q", msg)
	}
}

// TestTelemetryShippingLoopback drives a full coordinated run over the
// loopback transport with observability enabled and asserts the
// coordinator ingested worker telemetry: worker-labeled series in the
// registry, remote events in the tracer, and named lanes for the
// stitched trace.
func TestTelemetryShippingLoopback(t *testing.T) {
	if obs.Default() != nil || obs.DefaultTracer() != nil {
		t.Fatal("observability enabled at test entry")
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	obs.SetDefault(reg)
	obs.SetDefaultTracer(tr)
	defer obs.SetDefault(nil)
	defer obs.SetDefaultTracer(nil)

	c, err := New(Config{
		Workers: eqWorkers, Rounds: eqRounds, Samples: eqSamples, Seed: eqSeed,
	}, testModel(eqSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lb := NewLoopback()
	addr, err := c.Start(lb, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, eqWorkers)
	for i := 0; i < eqWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(lb, addr, workerOptions(fmt.Sprintf("w%d", i), eqSeed, eqSamples, nil))
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

	snap := reg.Snapshot()
	find := func(name string, labels ...obs.Label) (obs.Sample, bool) {
		for _, s := range snap {
			if s.Name != name {
				continue
			}
			if len(labels) > 0 && !reflect.DeepEqual(s.Labels, labels) {
				continue
			}
			return s, true
		}
		return obs.Sample{}, false
	}
	frames, ok := find("coord_telemetry_frames_total")
	if !ok || frames.Value == 0 {
		t.Fatal("coordinator ingested no telemetry frames")
	}
	// Every update carries a closing shipment, so all three workers must
	// have landed worker-labeled series.
	for i := 0; i < eqWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		found := false
		for _, s := range snap {
			for _, l := range s.Labels {
				if l.Key == "worker" && l.Value == name {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("no ingested series labeled worker=%q", name)
		}
	}
	// Per-worker committed accounting matches the report.
	for i, w := range rep.Workers {
		s, ok := find("coord_worker_rounds_total", obs.L("worker", w.Name))
		if !ok || int(s.Value) != w.Rounds {
			t.Fatalf("coord_worker_rounds_total{worker=%q} = %v, report says %d", w.Name, s.Value, w.Rounds)
		}
		s, ok = find("coord_worker_wire_bytes_total", obs.L("worker", w.Name))
		if !ok || int64(s.Value) != w.WireBytes {
			t.Fatalf("coord_worker_wire_bytes_total{worker=%q} = %v, report says %d (slot %d)",
				w.Name, s.Value, w.WireBytes, i)
		}
	}
	// The stitched trace: remote local-train spans re-tagged with fleet
	// slots, and named lanes for the coordinator and every worker.
	remoteTrain := false
	for _, e := range tr.Events() {
		if e.Remote && e.Name == "local-train" && e.Worker >= 0 && e.Dur > 0 {
			remoteTrain = true
		}
	}
	if !remoteTrain {
		t.Fatal("no remote local-train span reached the coordinator tracer")
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{`"coordinator"`, `"w0"`, `"w1"`, `"w2"`} {
		if !strings.Contains(sb.String(), lane) {
			t.Fatalf("chrome trace missing %s lane metadata", lane)
		}
	}
	if len(rep.Alerts) != 0 {
		t.Fatalf("healthy run fired alerts: %v", rep.Alerts)
	}
}

// TestCoordinatorHealthDegrades pins /healthz degradation: after a round
// that trips a rule the payload is degraded with reasons; a clean round
// recovers it.
func TestCoordinatorHealthDegrades(t *testing.T) {
	c, err := New(Config{Workers: 1, Rounds: 1, Samples: 4, Seed: eqSeed}, testModel(eqSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if h := c.Health(); h.Degraded {
		t.Fatalf("fresh coordinator degraded: %+v", h)
	}
	rep := c.core.NewReport(make([]fleet.WorkerSummary, 1))
	c.core.Finish(rep, fleet.RoundStats{Round: 0, Loss: math.NaN(), Workers: make([]fleet.WorkerRoundStats, 1)})
	h := c.Health()
	if !h.Degraded || len(h.Alerts) == 0 {
		t.Fatalf("NaN round did not degrade health: %+v", h)
	}
	if h.Status != "alerting" {
		t.Fatalf("degraded status = %q, want alerting", h.Status)
	}
	if !strings.Contains(h.Alerts[0], "loss-divergence") {
		t.Fatalf("alert reason %q does not name the rule", h.Alerts[0])
	}
	c.core.Finish(rep, fleet.RoundStats{Round: 1, Loss: 0.5, WallClock: time.Millisecond, Workers: make([]fleet.WorkerRoundStats, 1)})
	if h := c.Health(); h.Degraded {
		t.Fatalf("clean round did not recover health: %+v", h)
	}
}

// TestRoundSeriesSameForBothEngines pins that one recorder books the rounds
// of both loops: every fleet_* series the in-process engine publishes for a
// run has a coord_* twin, same labels and same value, on a coordinator
// driving the same fleet. The exceptions are what only a coordinator can
// measure: wire bytes, zero in process, and the wall-clock histograms, which
// agree in observation count only.
func TestRoundSeriesSameForBothEngines(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("observability enabled at test entry")
	}
	scrape := func(run func()) map[string]obs.Sample {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
		run()
		m := map[string]obs.Sample{}
		for _, s := range reg.Snapshot() {
			key := s.Name
			for _, l := range s.Labels {
				key += "{" + l.Key + "=" + l.Value + "}"
			}
			m[key] = s
		}
		return m
	}
	inProcess := scrape(func() {
		specs := make([]fleet.WorkerSpec, eqWorkers)
		for i := range specs {
			specs[i].Name = fmt.Sprintf("w%d", i)
		}
		f, err := fleet.New(fleet.Config{Workers: specs, Rounds: eqRounds, Seed: eqSeed},
			testModel(eqSeed), testDataset(eqSamples, eqSeed))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
	})
	coordinated := scrape(func() { runDistributed(t, NewLoopback(), "fedavg") })

	twins := 0
	for key, s := range inProcess {
		family, ok := strings.CutPrefix(key, "fleet_")
		// fleet_validation* and fleet_alerts_total are shared by name: both
		// loops validate updates and evaluate health rules through package
		// fleet, and no Core books them.
		if !ok || strings.HasPrefix(family, "validation") || strings.HasPrefix(family, "alerts_total") {
			continue
		}
		twin, ok := coordinated["coord_"+family]
		if !ok {
			t.Errorf("%s has no coord_ twin", key)
			continue
		}
		twins++
		switch {
		case strings.Contains(family, "wire_bytes_total"):
			if s.Value != 0 || twin.Value <= 0 {
				t.Errorf("%s = %v in process, %v coordinated; want 0 and > 0", family, s.Value, twin.Value)
			}
		case s.Kind == "histogram":
			if s.Count != twin.Count {
				t.Errorf("%s holds %d observations in process, %d coordinated", family, s.Count, twin.Count)
			}
		case s.Value != twin.Value:
			t.Errorf("%s = %v in process, %v coordinated", family, s.Value, twin.Value)
		}
	}
	// Ten fleet-wide series plus four per worker (no dropouts here).
	if want := 10 + 4*eqWorkers; twins != want {
		t.Fatalf("%d round series compared, want %d", twins, want)
	}
}
