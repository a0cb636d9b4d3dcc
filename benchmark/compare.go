package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setupFloorS is the absolute slack on setup_s: a set-up of tens of
// milliseconds may not fail a change over scheduler noise.
const setupFloorS = 0.1

// verdictOf judges one end-to-end metric of one workload: parent against
// change, by the bound the benchmark fixed.
//
//   - regressed: the change's median is worse than the parent's by more than
//     the bound.
//   - unresolved: not regressed by the medians, but the run-to-run spread of
//     either side is wider than the bound, so "no worse" cannot be told from
//     noise — unless every run of the change reads better than every run of
//     the parent.
//   - ok: otherwise.
func verdictOf(d metricDef, parent, change summary) string {
	lower := d.Better == "lower"
	worse := change.Median - parent.Median // positive = worse, in the metric's unit
	if !lower {
		worse = -worse
	}
	allowed := d.Bound * math.Abs(parent.Median)
	switch d.Name {
	case "failed_ratio":
		allowed = 0 // any increase
	case "setup_s":
		allowed = math.Max(allowed, setupFloorS)
	}
	if worse > allowed {
		return "regressed"
	}
	if d.Bound > 0 && max(parent.spread(), change.spread()) > d.Bound && !allBetter(parent.Values, change.Values, lower) {
		return "unresolved"
	}
	return "ok"
}

// allBetter reports whether every run of the change reads better than every
// run of the parent.
func allBetter(parent, change []float64, lower bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if lower && c >= p || !lower && c <= p {
				return false
			}
		}
	}
	return true
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, end-to-end metric) pairing and
// one per exact-count per-layer metric that differs, and returns the exit
// code: 1 when anything regressed.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	var loaded [2]*results
	for i, path := range []string{parentPath, changePath} {
		r, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		loaded[i] = r
	}
	return compareResults(loaded[0], loaded[1], stdout)
}

func compareResults(parent, change *results, w io.Writer) int {
	if parent.Seed != change.Seed || parent.Seconds != change.Seconds || parent.Smoke != change.Smoke {
		fmt.Fprintf(w, "not the same experiment: seed %d vs %d, seconds %g vs %g, smoke %v vs %v\n",
			parent.Seed, change.Seed, parent.Seconds, change.Seconds, parent.Smoke, change.Smoke)
		return 2
	}
	if p, c := parent.Env, change.Env; p.NProc != c.NProc || p.GOMAXPROCS != c.GOMAXPROCS || p.ParallelWorkers != c.ParallelWorkers ||
		p.GoVersion != c.GoVersion || p.CPUModel != c.CPUModel || p.ScratchFS != c.ScratchFS {
		fmt.Fprintf(w, "warning: environments differ\n  parent: %+v\n  change: %+v\n", p, c)
	}
	byName := map[string]workloadResult{}
	for _, wr := range change.Workloads {
		byName[wr.Name] = wr
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-18s %-10s %14s %14s %13s %8s %8s\n", "workload", "metric", "verdict", "parent", "change", "change/parent", "spread", "bound")
	for _, pw := range parent.Workloads {
		cw, ok := byName[pw.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from the change's results\n", pw.Name)
			counts["regressed"]++
			continue
		}
		for _, d := range endToEnd {
			p, c := pw.Summary[d.Name], cw.Summary[d.Name]
			v := verdictOf(d, p, c)
			counts[v]++
			ratio := "-" // no base to give a ratio against
			if p.Median != 0 {
				ratio = fmt.Sprintf("%.4f", c.Median/p.Median)
			}
			fmt.Fprintf(w, "%-16s %-18s %-10s %14.6g %14.6g %13s %7.1f%% %7.1f%%  %s, n=%d/%d\n", pw.Name, d.Name, v,
				p.Median, c.Median, ratio, 100*max(p.spread(), c.spread()), 100*d.Bound, d.Unit, len(p.Values), len(c.Values))
		}
		for _, name := range exactCounts {
			p, c := pw.Traced.Metrics[name], cw.Traced.Metrics[name]
			if p.Value != c.Value {
				counts["count_changed"]++
				fmt.Fprintf(w, "%-16s %-18s %-10s %14.6g %14.6g  %s (exact count)\n", pw.Name, name, "changed", p.Value, c.Value, p.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved, %d exact counts changed\n",
		counts["ok"], counts["regressed"], counts["unresolved"], counts["count_changed"])
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}
