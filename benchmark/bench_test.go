package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/schedule"
	"github.com/edgeml/edgetrain/store"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	p90, err := percentile(ramp(100), 0.90, minBeyond)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", p90, err)
	}
	if _, err := percentile(ramp(99), 0.90, minBeyond); err == nil {
		t.Fatal("p90 of 99 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
	if v, err := percentile(ramp(3), 0.90, 0); err != nil || v != 3 {
		t.Fatalf("smoke-scale p90 = %v, %v", v, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(ramp(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 1..3 = %v, %v", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Fatalf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, Dur: 100 * u},
		{Name: "a", Parent: 0, Start: 10 * u, Dur: 20 * u},   // 10..30
		{Name: "b", Parent: 0, Start: 20 * u, Dur: 30 * u},   // 20..50 overlaps a
		{Name: "c", Parent: 0, Start: 90 * u, Dur: 30 * u},   // 90..120 runs past the parent
		{Name: "deep", Parent: 1, Start: 12 * u, Dur: 5 * u}, // a grandchild is a's business
	}
	self := selfTimes(spans)
	if self[0] != 50*u {
		t.Fatalf("parent self time %v, want 50ms (100 - [10..50] - [90..100])", self[0])
	}
	if self[1] != 15*u || self[2] != 30*u || self[4] != 5*u {
		t.Fatalf("child self times %v", self)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbenchmark\nVmPeak:\t 1234567 kB\nVmHWM:\t   62012 kB\nVmRSS:\t   50000 kB\n"
	if kb, ok := parseVmHWM([]byte(status)); !ok || kb != 62012 {
		t.Fatalf("parseVmHWM = %d, %v", kb, ok)
	}
	for _, bad := range []string{"", "VmRSS:\t 5 kB\n", "VmHWM:\t kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if kb, ok := parseVmHWM([]byte(bad)); ok {
			t.Fatalf("parseVmHWM(%q) = %d, want refusal", bad, kb)
		}
	}
}

func sum1(values ...float64) summary {
	s := summary{Values: values, Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	return s
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	thr := metricDef{Name: "samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name           string
		d              metricDef
		parent, change summary
		want           string
	}{
		{"within bound", lat, sum1(100, 101, 102), sum1(104, 105, 106), "ok"},
		{"latency up 20%", lat, sum1(100, 101, 102), sum1(120, 121, 122), "regressed"},
		{"throughput down 20%", thr, sum1(100, 101, 102), sum1(80, 81, 82), "regressed"},
		{"throughput up is not a regression", thr, sum1(100, 101, 102), sum1(150, 151, 152), "ok"},
		{"spread wider than the bound", lat, sum1(80, 100, 125), sum1(82, 101, 124), "unresolved"},
		{"wide spread but every run better", lat, sum1(100, 120, 140), sum1(60, 70, 80), "ok"},
		{"single runs cannot be unresolved", lat, sum1(100), sum1(105), "ok"},
		{"any failure is a regression", endToEnd[6], sum1(0, 0, 0), sum1(0, 0.01, 0.01), "regressed"},
		{"set-up has an absolute floor", endToEnd[5], sum1(0.010, 0.011, 0.012), sum1(0.050, 0.051, 0.052), "ok"},
		{"set-up beyond the floor", endToEnd[5], sum1(0.010, 0.011, 0.012), sum1(0.150, 0.151, 0.152), "regressed"},
	}
	for _, c := range cases {
		if got := verdictOf(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(p50 float64) *results {
		wr := workloadResult{Name: "node_storeall", Summary: map[string]summary{}, Traced: &runResult{Metrics: newMetricSet(perLayer)}}
		for _, d := range endToEnd {
			wr.Summary[d.Name] = sum1(1, 1, 1)
		}
		wr.Summary["op_ms_p50"] = sum1(p50, p50, p50)
		return &results{Schema: resultsSchema, Seed: 1, Seconds: 20, Workloads: []workloadResult{wr}}
	}
	var out bytes.Buffer
	if code := compareResults(mk(100), mk(105), &out); code != 0 || !strings.Contains(out.String(), "0 regressed") {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(100), mk(150), &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	other := mk(100)
	other.Seed = 2
	if code := compareResults(mk(100), other, &out); code != 2 {
		t.Fatalf("different seeds compared: exit %d", code)
	}
}

// TestBenchmarkJSONMatchesTables pins the contract file to the tables the
// program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	want := map[string]metricDef{}
	for _, d := range endToEnd {
		if d.Name != "failed_ratio" { // carried by attempted/failed
			want[d.Name] = d
		}
	}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, want %d", len(spec.EndToEnd), len(want))
	}
	for _, d := range spec.EndToEnd {
		if want[d.Name] != d {
			t.Errorf("end-to-end %+v, program has %+v", d, want[d.Name])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range spec.PerLayer {
		if perLayer[i] != d {
			t.Errorf("per-layer %+v, program has %+v", d, perLayer[i])
		}
	}
	for _, name := range exactCounts {
		if _, ok := newMetricSet(perLayer)[name]; !ok {
			t.Errorf("exact count %q is not a per-layer metric", name)
		}
	}
}

func TestRefusesTunedEnvironment(t *testing.T) {
	t.Setenv("GOGC", "50")
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "node_storeall", "-smoke", "-scratch", t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d with GOGC set; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "GOGC") {
		t.Fatalf("refusal does not name the variable: %s", errOut.String())
	}
}

// stepGrads runs one training step and returns the bits of every parameter
// gradient.
func stepGrads(t *testing.T, c *chain.Chain, x *tensor.Tensor, labels []int, sched schedule.Schedule, st store.Store) []uint64 {
	t.Helper()
	ce := nn.NewSoftmaxCrossEntropy()
	c.ZeroGrads()
	_, err := chain.ExecuteWithStore(c, x, func(out *tensor.Tensor) *tensor.Tensor {
		ce.Forward(out, labels)
		return ce.Backward()
	}, sched, st, true)
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	for _, p := range c.Params() {
		for _, v := range p.Grad.Data() {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestDecoratorsAreTransparent pins that a traced step is the untraced step:
// byte-identical gradients through a spilling two-level plan, and everything
// the program looks for on a layer or a store still visible through the
// decorators.
func TestDecoratorsAreTransparent(t *testing.T) {
	spec := nodeSpecs["node_spill_save"]
	plainState, err := setupNode(spec, 3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plainState.close()
	rec := newRecorder()
	tracedState, err := setupNode(spec, 3, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tracedState.close()

	batch := plainState.ds.Batch(0, nodeBatch)
	sched, err := spec.policy.Plan(plainState.chain.Len())
	if err != nil {
		t.Fatal(err)
	}
	want := stepGrads(t, plainState.chain, batch.Images, batch.Labels, sched, plainState.store)
	step := rec.begin("step", "")
	got := stepGrads(t, tracedState.chain, batch.Images, batch.Labels, sched, tracedState.store)
	rec.end(step)
	if len(got) != len(want) {
		t.Fatalf("%d gradient values traced, %d plain", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gradient value %d differs: %x traced, %x plain", i, got[i], want[i])
		}
	}
	if n := count(rec.spans, "nn.backward", 1)[0]; n != plainState.chain.Len() {
		t.Fatalf("%d backward spans for %d stages", n, plainState.chain.Len())
	}
	if ts := tracedState.store.(*tracedStore); ts.spilled == 0 || ts.Stats().DiskWrites == 0 {
		t.Fatalf("two-level plan spilled nothing through the decorator: %+v", ts.Stats())
	}

	// Batch-norm statistics reach the checkpoint codec through the layer
	// decorator: same names, same values.
	plainLS := ckpt.CaptureLayerState(plainState.chain.Stages)
	tracedLS := ckpt.CaptureLayerState(tracedState.chain.Stages)
	if len(plainLS) == 0 || len(plainLS) != len(tracedLS) {
		t.Fatalf("layer state: %d tensors plain, %d traced", len(plainLS), len(tracedLS))
	}
	for i := range plainLS {
		if plainLS[i].Name != tracedLS[i].Name || tensor.MaxAbsDiff(plainLS[i].Tensor, tracedLS[i].Tensor) != 0 {
			t.Fatalf("layer state %q differs through the decorator", plainLS[i].Name)
		}
	}
	if paramHash(plainState.chain) != paramHash(tracedState.chain) {
		t.Fatal("parameter hash differs through the decorator")
	}

	// Holds and the residency accounting pass through the store decorator:
	// the executor's peak-bytes tracking depends on both.
	ram := &tracedStore{inner: store.NewRAM(), rec: rec}
	x := tensor.New(4, 4)
	if err := ram.Put(0, schedule.TierRAM, x); err != nil {
		t.Fatal(err)
	}
	if !ram.Holds(x) || ram.BytesResident() != x.Bytes() || ram.Holds(tensor.New(4, 4)) {
		t.Fatalf("Holds/BytesResident not forwarded: holds=%v resident=%d", ram.Holds(x), ram.BytesResident())
	}
	if got, err := ram.Get(0); err != nil || got != x {
		t.Fatalf("Get through the decorator: %v, %v", got, err)
	}
	if err := ram.Free(0); err != nil || ram.BytesResident() != 0 {
		t.Fatalf("Free through the decorator: %v, resident %d", err, ram.BytesResident())
	}
}

func TestContractLine(t *testing.T) {
	r := newRunResult(runOptions{workload: "node_storeall"})
	r.Attempted = 120
	line := contractLine(r)
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys: %s", line)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if _, has := metrics["failed_ratio"]; has || len(metrics) != len(endToEnd)-1 {
		t.Fatalf("measured result line metrics: %v", metrics)
	}
}

// TestSmokeSuite runs all four workloads, measured and traced, at three
// operations each, with every correctness check on.
func TestSmokeSuite(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	s := suite{seed: 5, seconds: 0, runs: 1, smoke: true, root: dir, out: dir + "/results.json", traceDir: dir,
		stdout: &out, stderr: &out,
		child: func(o runOptions) (*runResult, error) {
			o.scale()
			return runOne(o)
		}}
	if err := s.run(); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	res, err := loadResults(s.out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil || len(res.Workloads) != len(workloads) {
		t.Fatalf("claim %v, %d workloads", res.Claim, len(res.Workloads))
	}
	for _, wr := range res.Workloads {
		if wr.Measured[0].Attempted != 3 || wr.Measured[0].Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", wr.Name, wr.Measured[0].Attempted, wr.Measured[0].Failed)
		}
		for _, d := range perLayer {
			if _, ok := wr.Traced.Metrics[d.Name]; !ok {
				t.Errorf("%s traced run lacks %s", wr.Name, d.Name)
			}
		}
		if _, err := os.Stat(dir + "/" + wr.Name + ".trace.json"); err != nil {
			t.Errorf("%s: no Chrome trace: %v", wr.Name, err)
		}
	}
	// The layer a workload bypasses reports zero work there.
	byName := map[string]*runResult{}
	for _, wr := range res.Workloads {
		byName[wr.Name] = wr.Traced
	}
	if v := byName["node_storeall"].Metrics["store.disk_writes_per_step"].Value; v != 0 {
		t.Errorf("node_storeall spilled %v states per step", v)
	}
	if v := byName["node_spill_save"].Metrics["store.disk_writes_per_step"].Value; v == 0 {
		t.Error("node_spill_save spilled nothing")
	}
	if v := byName["node_revolve"].Metrics["chain.recompute_forwards_per_step"].Value; v == 0 {
		t.Error("node_revolve recomputed nothing")
	}
	if v := byName["fleet_tcp_int8"].Metrics["compress.ratio"].Value; v < 2 {
		t.Errorf("fleet_tcp_int8 compression ratio %v", v)
	}
	// A results file compared with itself has nothing to report.
	var cmp bytes.Buffer
	if code := compareResults(res, res, &cmp); code != 0 {
		t.Fatalf("self-compare exit %d:\n%s", code, cmp.String())
	}
}
