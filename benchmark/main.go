// Command benchmark is the repository's performance instrument: four
// workloads through the public entry points the cmd/ tools wrap, seven
// end-to-end metrics from an untraced run of each, per-layer metrics from a
// separate traced run, and correctness checks that fail the command.
//
//	go run ./benchmark                      # the whole suite, one child process per run
//	go run ./benchmark -runs 5 -out a.json  # a ledger row: five measured runs per workload
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload node_revolve --seed 3 --seconds 20 --trace 0
//
// The last form is the driver's contract: one workload, in this process, one
// JSON result object as the last line of standard output. README.md has the
// metric and workload tables and what each is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

var workloads = []struct{ Name, Why string }{
	{"node_storeall", "plain single-node baseline: ExecutePlain bypasses plan, schedule and store, so tensor and nn kernels do nearly all the work"},
	{"node_revolve", "the paper's trade: revolve with 3 slots in RAM, so planner, scheduled executor and recompute are the delta over the baseline"},
	{"node_spill_save", "the storage layers the other two bypass: twolevel spill through a tiered store on disk plus a durable checkpoint every step"},
	{"fleet_tcp_int8", "communication-bound fleet: big model, tiny shards, int8+deflate updates over TCP, so coord, compress and ckpt take half the round"},
}

// runOptions is everything one run of one workload needs.
type runOptions struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	smoke     bool
	minOps    int // floor on operations, whatever the time budget says
	beyond    int // samples that must lie beyond the reported p90
	setups    int // set-up repetitions behind setup_s
	verifyOps int // operations re-run another way for bit-identity
	root      string
	traceDir  string
}

// scale fills the sizes that follow from the mode. A smoke run keeps every
// code path and every check but runs three operations; its numbers mean
// nothing.
func (o *runOptions) scale() {
	switch {
	case o.smoke:
		o.seconds, o.minOps, o.beyond, o.setups, o.verifyOps = 0, 3, 0, 2, 3
	case o.traced:
		o.minOps, o.beyond, o.setups, o.verifyOps = 10, minBeyond, 2, 10
	default:
		o.minOps, o.beyond, o.setups, o.verifyOps = 100, minBeyond, 5, 10
	}
	if o.smoke {
		return
	}
	if o.workload == "fleet_tcp_int8" {
		o.verifyOps = fleetVerify
	} else if !o.traced {
		// A node set-up takes tens of milliseconds: many repetitions cost
		// little and steady the median.
		o.setups = 21
	}
}

type checkResult struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// runResult is what one run reports. LossBits and Counts are what the suite
// compares between runs that must be the same computation.
type runResult struct {
	Workload    string           `json:"workload"`
	Traced      bool             `json:"traced"`
	Seed        uint64           `json:"seed"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Samples     int              `json:"samples"`
	Checks      []checkResult    `json:"checks"`
	Metrics     metricSet        `json:"metrics"`
	LossBits    []uint64         `json:"loss_bits,omitempty"`
	LossHash    string           `json:"loss_sha256,omitempty"` // the suite's file keeps this in place of the bits
	ParamHash   string           `json:"param_hash"`
	Counts      map[string]int64 `json:"counts,omitempty"`
	RSSFallback bool             `json:"rss_is_memstats_sys,omitempty"`

	// TracedOpMs is a traced run's median operation time: the base of the
	// shares the report prints, never an end-to-end number.
	TracedOpMs float64 `json:"traced_op_ms_p50,omitempty"`
}

func newRunResult(o runOptions) *runResult {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	return &runResult{Workload: o.workload, Traced: o.traced, Seed: o.seed, Metrics: newMetricSet(defs)}
}

func (r *runResult) check(c checkResult) { r.Checks = append(r.Checks, c) }

func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return r.Failed == 0
}

// finishMeasured fills the end-to-end metrics of an untraced run. It reads
// the peak resident set here, before any verification work runs in the
// process.
func (r *runResult) finishMeasured(opMs []float64, samples int, wall time.Duration, cpu float64, setups []float64, beyond int) {
	r.Attempted, r.Samples = len(opMs), samples
	m := r.Metrics
	if err := opSummary(m, opMs, beyond); err != nil {
		r.check(checkResult{"enough_operations", false, err.Error()})
	}
	m.set("samples_per_s", float64(samples)/wall.Seconds())
	m.set("cpu_s_per_ksample", 1000*cpu/float64(samples))
	m.set("setup_s", median(setups))
	m.set("failed_ratio", float64(r.Failed)/float64(r.Attempted))
	mb, fallback := peakRSSMB()
	m.set("peak_rss_mb", mb)
	r.RSSFallback = fallback
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process and end with one JSON result line; empty runs the suite")
	seed := fs.Uint64("seed", 1, "workload seed: model weights and dataset derive from it")
	seconds := fs.Float64("seconds", 20, "how long one measured run measures")
	trace := fs.Int("trace", 0, "with -workload: 1 runs traced and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "suite: measured runs per workload (5 or more for a ledger row)")
	out := fs.String("out", "", "results JSON (suite default bench_out/results.json)")
	traceDir := fs.String("trace-dir", "", "directory for one Chrome trace per traced workload (suite default bench_out)")
	scratch := fs.String("scratch", ".", "directory under which the run's scratch root is created and removed")
	smoke := fs.Bool("smoke", false, "three operations per run: exercises every path and check, measures nothing")
	compare := fs.Bool("compare", false, "compare two results files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if err := refuseTunedEnv(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	root, err := os.MkdirTemp(*scratch, ".bench_scratch-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(root)
	defer removeOnSignal(root)()

	if *workload == "" {
		s := suite{seed: *seed, seconds: *seconds, runs: *runs, smoke: *smoke, root: root,
			out: *out, traceDir: *traceDir, stdout: stdout, stderr: stderr}
		if err := s.run(); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	o := runOptions{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, root: root, traceDir: *traceDir}
	o.scale()
	res, err := runOne(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRun(stdout, res)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(contractLine(res)))
	if !res.correct() {
		return 1
	}
	return 0
}

// removeOnSignal removes the scratch root when the process is interrupted,
// so a cancelled run leaves nothing behind either. The returned function
// ends the watch.
func removeOnSignal(root string) (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			os.RemoveAll(root)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

func runOne(o runOptions) (*runResult, error) {
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	if _, ok := nodeSpecs[o.workload]; ok {
		return runNode(o)
	}
	if o.workload == "fleet_tcp_int8" {
		return runFleet(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// contractLine is the driver's contract: the last line of standard output,
// one JSON object with exactly these keys. failed_ratio travels as the
// attempted/failed pair, not as a metric.
func contractLine(r *runResult) []byte {
	metrics := make(metricSet, len(r.Metrics))
	for name, v := range r.Metrics {
		if name != "failed_ratio" {
			metrics[name] = v
		}
	}
	line, err := json.Marshal(map[string]any{"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		panic(err) // a NaN metric: a bug in the benchmark
	}
	return line
}

func printRun(w io.Writer, r *runResult) {
	mode := "measured"
	defs := endToEnd
	if r.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d operations, %d samples, %d failed\n", r.Workload, mode, r.Seed, r.Attempted, r.Samples, r.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if r.RSSFallback {
		fmt.Fprintln(w, "  peak_rss_mb is runtime.MemStats.Sys: /proc/self/status has no VmHWM here")
	}
	if r.Traced {
		printShares(w, r)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.Pass {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-40s %s (%s)\n", c.Name, verdict, c.Detail)
	}
}

// printShares says where a traced operation's time goes, as shares of the
// traced median operation time.
func printShares(w io.Writer, r *runResult) {
	v := func(name string) float64 { return r.Metrics[name].Value }
	pct := func(part float64) float64 { return 100 * part / r.TracedOpMs }
	if r.Workload == "fleet_tcp_int8" {
		lt := 100 * v("coord.local_train_share")
		fmt.Fprintf(w, "  shares of the round (%.1f ms): local training on the slowest worker %.1f%%, everything else %.1f%% (decode %.1f%%, validate %.1f%%, fold %.1f%%)\n",
			r.TracedOpMs, lt, 100-lt, 100*v("coord.decode_share"), 100*v("coord.validate_share"), 100*v("coord.fold_share"))
		return
	}
	spill := v("store.put_ms_per_step") + v("store.get_ms_per_step")
	fmt.Fprintf(w, "  shares of the step (%.1f ms): nn forward+backward %.1f%%, chain self %.1f%%, plan %.1f%%, spill %.1f%%, durable save %.1f%%, optimizer %.1f%%\n",
		r.TracedOpMs, pct(v("nn.forward_ms_per_step")+v("nn.backward_ms_per_step")), pct(v("chain.self_ms_per_step")),
		pct(v("plan.build_ms_per_step")), pct(spill), pct(v("trainer.save_stall_ms_per_step")), pct(v("trainer.optimizer_ms_per_step")))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
