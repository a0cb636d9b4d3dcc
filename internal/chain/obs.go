package chain

import (
	"sync/atomic"
	"time"

	"github.com/edgeml/edgetrain/obs"
)

// chainObs caches the metric handles for the hot step path, keyed by the
// registry identity, so an instrumented step costs one atomic pointer
// load plus a handful of atomic adds — and a disabled one costs only the
// pointer load. The cache re-resolves whenever obs.SetDefault swaps the
// registry.
type chainObs struct {
	reg *obs.Registry
	on  bool

	steps    *obs.Counter
	fwdEvals *obs.Counter
	bwdEvals *obs.Counter
	diskW    *obs.Counter
	diskR    *obs.Counter

	stepSec *obs.Histogram
	fwdSec  *obs.Histogram
	bwdSec  *obs.Histogram

	peakRAM  *obs.Gauge
	peakDisk *obs.Gauge
}

var chainObsCache atomic.Pointer[chainObs]

func obsHandles() *chainObs {
	r := obs.Default()
	if m := chainObsCache.Load(); m != nil && m.reg == r {
		return m
	}
	m := &chainObs{reg: r, on: r != nil}
	if r != nil {
		m.steps = r.Counter("chain_steps_total", "Checkpointed training steps executed.")
		m.fwdEvals = r.Counter("chain_forward_evals_total", "Stage forward executions (initial sweep plus recomputation).")
		m.bwdEvals = r.Counter("chain_backward_evals_total", "Stage adjoint executions (each includes its fused forward re-run).")
		m.diskW = r.Counter("chain_disk_writes_total", "Checkpoint states spilled to the store's disk tier.")
		m.diskR = r.Counter("chain_disk_reads_total", "Checkpoint states restored from the store's disk tier.")
		m.stepSec = r.Histogram("chain_step_seconds", "Wall-clock time of one forward+backward step.", nil)
		m.fwdSec = r.Histogram("chain_forward_seconds", "Per-step time in Advance forward sweeps (incl. recomputation).", nil)
		m.bwdSec = r.Histogram("chain_backward_seconds", "Per-step time in adjoint steps (incl. their fused forward re-runs).", nil)
		m.peakRAM = r.Gauge("chain_peak_state_bytes", "Largest per-step peak RAM footprint of retained states seen so far.")
		m.peakDisk = r.Gauge("chain_peak_disk_bytes", "Largest per-step peak of checkpoint bytes spilled to disk seen so far.")
	}
	chainObsCache.Store(m)
	return m
}

// record publishes one step's Usage. Timings are collected only when the
// registry is enabled, so the zero durations of a disabled run never
// reach a histogram.
func (m *chainObs) record(u Usage, stepStart time.Time, fwd, bwd time.Duration) {
	if !m.on {
		return
	}
	step := time.Since(stepStart)
	m.steps.Inc()
	m.fwdEvals.Add(int64(u.ForwardEvals))
	m.bwdEvals.Add(int64(u.BackwardEvals))
	m.diskW.Add(int64(u.DiskWrites))
	m.diskR.Add(int64(u.DiskReads))
	m.stepSec.Observe(step.Seconds())
	m.fwdSec.Observe(fwd.Seconds())
	m.bwdSec.Observe(bwd.Seconds())
	m.peakRAM.SetMax(float64(u.PeakStateBytes))
	m.peakDisk.SetMax(float64(u.PeakDiskBytes))
}
