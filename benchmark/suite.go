package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

const resultsSchema = "edgetrain-benchmark/1"

// results is the file the suite writes and -compare reads.
type results struct {
	Schema    string           `json:"schema"`
	Claim     *string          `json:"claim"` // this instrument claims no gain: always null
	Env       envBlock         `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
	Checks    []checkResult    `json:"checks"`
}

type workloadResult struct {
	Name     string             `json:"name"`
	Why      string             `json:"why"`
	Summary  map[string]summary `json:"summary"` // per end-to-end metric, over the measured runs
	Measured []*runResult       `json:"measured"`
	Traced   *runResult         `json:"traced"`
}

// summary is the median and quartiles of one metric over a workload's
// measured runs. With a single run the quartiles equal the median and the
// spread is unknown, not zero.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
	Unit   string    `json:"unit"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is the
// arithmetic the driver applies to its own runs.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		return data[0], data[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func summarize(runs []*runResult, d metricDef) summary {
	s := summary{Unit: d.Unit}
	for _, r := range runs {
		s.Values = append(s.Values, r.Metrics[d.Name].Value)
	}
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	return s
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// suite runs every workload measured and then traced, each run in a child
// process of its own so peak memory, set-up time and CPU time belong to one
// workload and one mode.
type suite struct {
	seed     uint64
	seconds  float64
	runs     int
	smoke    bool
	root     string
	out      string
	traceDir string
	stdout   io.Writer
	stderr   io.Writer

	// child runs one workload; tests substitute an in-process call.
	child func(o runOptions) (*runResult, error)
}

func (s *suite) run() error {
	if s.out == "" {
		s.out = filepath.Join("bench_out", "results.json")
	}
	if s.traceDir == "" {
		s.traceDir = filepath.Dir(s.out)
	}
	for _, dir := range []string{filepath.Dir(s.out), s.traceDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if s.child == nil {
		s.child = s.execChild
	}
	res := results{Schema: resultsSchema, Env: readEnv(s.root), Seed: s.seed, Seconds: s.seconds, Smoke: s.smoke}
	e := res.Env
	fmt.Fprintf(s.stdout, "environment: %d cpus (GOMAXPROCS %d, %d kernel workers), %s, %s, kernel %s, commit %s, scratch on %s\n",
		e.NProc, e.GOMAXPROCS, e.ParallelWorkers, e.GoVersion, e.CPUModel, e.Kernel, e.GitCommit, e.ScratchFS)

	for _, w := range workloads {
		wr := workloadResult{Name: w.Name, Why: w.Why, Summary: map[string]summary{}}
		for i := 0; i < max(s.runs, 1); i++ {
			r, err := s.child(runOptions{workload: w.Name, seed: s.seed, seconds: s.seconds, smoke: s.smoke, root: s.root})
			if err != nil {
				return fmt.Errorf("%s measured: %w", w.Name, err)
			}
			printRun(s.stdout, r)
			wr.Measured = append(wr.Measured, r)
		}
		// The traced loop gets half the time: its per-layer numbers are
		// medians over operations, not over seconds.
		t, err := s.child(runOptions{workload: w.Name, seed: s.seed, seconds: s.seconds / 2, traced: true,
			smoke: s.smoke, root: s.root, traceDir: s.traceDir})
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		printRun(s.stdout, t)
		wr.Traced = t
		for _, d := range endToEnd {
			wr.Summary[d.Name] = summarize(wr.Measured, d)
		}
		res.Workloads = append(res.Workloads, wr)
	}

	res.Checks = crossChecks(res.Workloads)
	ok := true
	for _, wr := range res.Workloads {
		for _, r := range append(wr.Measured, wr.Traced) {
			ok = ok && r.correct()
			r.LossHash, r.LossBits = lossHash(r.LossBits), nil
		}
	}
	fmt.Fprintln(s.stdout, "\ncross-run checks:")
	for _, c := range res.Checks {
		ok = ok && c.Pass
		fmt.Fprintf(s.stdout, "  check %-44s %s (%s)\n", c.Name, verdict(c.Pass), c.Detail)
	}
	printSummary(s.stdout, &res)
	if err := writeJSON(s.out, &res); err != nil {
		return err
	}
	fmt.Fprintf(s.stdout, "\nresults: %s   traces: %s/<workload>.trace.json\n", s.out, s.traceDir)
	if !ok {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// execChild re-executes this binary for one run and reads back its result
// file.
func (s *suite) execChild(o runOptions) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(s.root, "result-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
		"-out", f.Name(), "-scratch", s.root, "-trace-dir", o.traceDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = s.stderr // the suite prints the result itself
	runErr := cmd.Run()
	data, err := os.ReadFile(f.Name())
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("child produced no result (%v)", runErr)
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil // a failed check is in r; the suite reports it with the rest
}

func lossHash(bits []uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, b := range bits {
		binary.LittleEndian.PutUint64(buf[:], b)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// crossChecks are the correctness checks that need more than one run: the
// three node workloads are one computation (check 1), and a traced run is
// its measured run observed (check 2).
func crossChecks(ws []workloadResult) []checkResult {
	var out []checkResult
	var base *runResult
	for _, w := range ws {
		m := w.Measured[0]
		for i, r := range w.Measured[1:] {
			n := min(len(m.LossBits), len(r.LossBits))
			out = append(out, checkResult{fmt.Sprintf("%s_run%d_repeats_run0", w.Name, i+1),
				equalPrefix(m.LossBits, r.LossBits, n), fmt.Sprintf("first %d operations", n)})
		}
		if _, node := nodeSpecs[w.Name]; node {
			if base == nil {
				base = m
			} else {
				n := min(len(base.LossBits), len(m.LossBits))
				out = append(out, checkResult{w.Name + "_loss_bits_match_" + base.Workload,
					equalPrefix(base.LossBits, m.LossBits, n), fmt.Sprintf("first %d steps", n)})
			}
		}
		t := w.Traced
		n := min(len(t.LossBits), len(m.LossBits))
		out = append(out, checkResult{w.Name + "_traced_loss_bits_match_measured",
			equalPrefix(t.LossBits, m.LossBits, n), fmt.Sprintf("first %d operations", n)})
		same := len(t.Counts) == len(m.Counts)
		for k, v := range m.Counts {
			same = same && t.Counts[k] == v
		}
		out = append(out, checkResult{w.Name + "_traced_counts_match_measured", same,
			fmt.Sprintf("measured %v, traced %v", m.Counts, t.Counts)})
	}
	return out
}

func verdict(pass bool) string {
	if pass {
		return "ok"
	}
	return "FAILED"
}

func printSummary(w io.Writer, res *results) {
	fmt.Fprintln(w, "\nend-to-end (median [q1 .. q3] over the measured runs):")
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "  %s: %s\n", wr.Name, wr.Why)
		for _, d := range endToEnd {
			s := wr.Summary[d.Name]
			fmt.Fprintf(w, "    %-20s %12.6g [%.6g .. %.6g] %s (n=%d)\n", d.Name, s.Median, s.Q1, s.Q3, d.Unit, len(s.Values))
		}
		m := wr.Measured[0]
		fmt.Fprintf(w, "    %d operations, %d failed; p90 has %d samples beyond it\n", m.Attempted, m.Failed, m.Attempted-int(math.Ceil(0.9*float64(m.Attempted))))
	}
}
