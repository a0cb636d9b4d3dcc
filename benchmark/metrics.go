package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metricValue is one measured number with its unit, the shape the driver's
// contract reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists what a user of the system sees. Every workload reports all
// of them from its measured (untraced) run. failed_ratio is zero on healthy
// code, so the driver contract carries it as the attempted/failed pair of
// the result line and BENCHMARK.json lists the other six.
//
// The bounds are sized to the reference box, a shared 2-vCPU VM: two sets of
// ten identical 20 s runs spread by 5-11% (inter-quartile; 10-17% for the
// fleet's p90, 1-6% for RSS), and the box's speed moves by 20% and more
// between one half hour and the next. A bound inside that noise would make
// every comparison unresolved, so each is at least twice the spread seen.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s", "higher", 0.24},
	{"op_ms_p50", "ms", "lower", 0.24},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"cpu_s_per_ksample", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"failed_ratio", "ratio", "lower", 0},
}

// perLayer lists the traced-run metrics, named <layer>.<metric> after the
// repository's modules. Every traced run reports every one of them; a layer
// the workload never enters reports zero work, which is itself the evidence
// that an optimisation there cannot move that workload.
var perLayer = []metricDef{
	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matmul_model_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_fwd_ms", "ms", "lower", 0},
	{"tensor.conv_bwd_ms", "ms", "lower", 0},

	{"nn.forward_ms_per_step", "ms", "lower", 0},
	{"nn.backward_ms_per_step", "ms", "lower", 0},
	{"nn.forward_calls_per_step", "count", "lower", 0},
	{"nn.backward_calls_per_step", "count", "lower", 0},

	{"chain.execute_ms_per_step", "ms", "lower", 0},
	{"chain.self_ms_per_step", "ms", "lower", 0},
	{"chain.recompute_forwards_per_step", "count", "lower", 0},
	{"chain.peak_state_mb", "MB", "lower", 0},
	{"chain.rho_measured", "ratio", "lower", 0},

	{"plan.build_ms_per_step", "ms", "lower", 0},
	{"plan.rho_predicted", "ratio", "lower", 0},
	{"plan.peak_states_predicted", "count", "lower", 0},

	{"store.put_ms_per_step", "ms", "lower", 0},
	{"store.get_ms_per_step", "ms", "lower", 0},
	{"store.disk_writes_per_step", "count", "lower", 0},
	{"store.disk_reads_per_step", "count", "lower", 0},
	{"store.spill_mb_per_step", "MB", "lower", 0},
	{"store.peak_disk_mb", "MB", "lower", 0},

	{"trainer.batch_ms_per_step", "ms", "lower", 0},
	{"trainer.optimizer_ms_per_step", "ms", "lower", 0},
	{"trainer.save_stall_ms_per_step", "ms", "lower", 0},
	{"trainer.alloc_mb_per_step", "MB", "lower", 0},
	{"trainer.gc_cycles_per_100_steps", "count", "lower", 0},

	{"ckpt.save_ms_p50", "ms", "lower", 0},
	{"ckpt.save_mb", "MB", "lower", 0},
	{"ckpt.encode_ms", "ms", "lower", 0},
	{"ckpt.load_ms", "ms", "lower", 0},

	{"compress.encode_ms_per_update", "ms", "lower", 0},
	{"compress.decode_ms_per_update", "ms", "lower", 0},
	{"compress.encoded_bytes_per_update", "bytes", "lower", 0},
	{"compress.ratio", "ratio", "higher", 0},

	{"fleet.local_train_ms_per_round", "ms", "lower", 0},
	{"fleet.validate_ms_per_update", "ms", "lower", 0},
	{"fleet.fold_ms_per_round", "ms", "lower", 0},
	{"fleet.inproc_round_ms_p50", "ms", "lower", 0},

	{"coord.frame_rtt_ms", "ms", "lower", 0},
	{"coord.uplink_bytes_per_round", "bytes", "lower", 0},
	{"coord.downlink_bytes_per_round", "bytes", "lower", 0},
	{"coord.wire_bytes_per_round", "bytes", "lower", 0},
	{"coord.transport_overhead_ms_per_round", "ms", "lower", 0},
	{"coord.broadcast_share", "ratio", "lower", 0},
	{"coord.local_train_share", "ratio", "lower", 0},
	{"coord.decode_share", "ratio", "lower", 0},
	{"coord.validate_share", "ratio", "lower", 0},
	{"coord.fold_share", "ratio", "lower", 0},
	{"coord.ckpt_save_ms_per_round", "ms", "lower", 0},
	{"coord.retries_total", "count", "lower", 0},
	{"coord.dropouts_total", "count", "lower", 0},
	{"coord.rejected_total", "count", "lower", 0},

	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
}

// exactCounts are the per-layer metrics that count work instead of timing
// it: they must repeat exactly between two runs of the same code and seed.
var exactCounts = []string{
	"nn.forward_calls_per_step",
	"nn.backward_calls_per_step",
	"chain.recompute_forwards_per_step",
	"chain.peak_state_mb",
	"plan.rho_predicted",
	"plan.peak_states_predicted",
	"store.disk_writes_per_step",
	"store.disk_reads_per_step",
	"store.spill_mb_per_step",
	"store.peak_disk_mb",
	"ckpt.save_mb",
	"compress.encoded_bytes_per_update",
	"compress.ratio",
	"coord.uplink_bytes_per_round",
	"coord.downlink_bytes_per_round",
	"coord.retries_total",
	"coord.dropouts_total",
	"coord.rejected_total",
}

// metricSet collects one run's numbers keyed by metric name.
type metricSet map[string]metricValue

// newMetricSet returns a set holding every given metric at zero, so a run
// reports each name even where the workload does no such work.
func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

// set stores a value under a name the set was created with; an unknown name
// is a bug in the benchmark, not in the program under test.
func (m metricSet) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	mv.Value = v
	m[name] = mv
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of sorted
// samples. It refuses when fewer than beyond samples lie above the pick: a
// tail read from a handful of samples is noise, not a percentile.
func percentile(sorted []float64, p float64, beyond int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	k := int(math.Ceil(p*float64(n))) - 1
	k = min(max(k, 0), n-1)
	if n-1-k < beyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, n-1-k, beyond)
	}
	return sorted[k], nil
}

// median returns the middle of the values (mean of the two middle ones for
// an even count) without reordering the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parseVmHWM extracts the peak resident set size, in kB, from the text of
// /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, bool) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		fields := bytes.Fields(rest)
		if len(fields) != 2 || string(fields[1]) != "kB" {
			return 0, false
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		return kb, err == nil && kb > 0
	}
	return 0, false
}

// peakRSSMB reads this process's peak resident set size. Where /proc does
// not give it, the Go runtime's Sys total stands in and fallback is true.
func peakRSSMB() (mb float64, fallback bool) {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if kb, ok := parseVmHWM(status); ok {
			return float64(kb) * 1024 / 1e6, false
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6, true
}

// cpuSeconds is the user+system CPU time this process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// opSummary turns per-operation wall times into the end-to-end timing
// metrics. beyond is minBeyond outside smoke runs.
func opSummary(m metricSet, opMs []float64, beyond int) error {
	sorted := append([]float64(nil), opMs...)
	sort.Float64s(sorted)
	p90, err := percentile(sorted, 0.90, beyond)
	if err != nil {
		return err
	}
	m.set("op_ms_p50", median(sorted))
	m.set("op_ms_p90", p90)
	return nil
}
