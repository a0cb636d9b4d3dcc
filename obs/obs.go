// Package obs is the observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms with a snapshot API
// and Prometheus text-format v0.0.4 exposition), a ring-buffered trace
// recorder for round lifecycle phases (exported as JSONL or Chrome
// trace_event JSON for chrome://tracing), an HTTP mux serving /metrics,
// /healthz, /trace and net/http/pprof, and a small structured-log helper
// shared by the long-running processes.
//
// # No-op by default
//
// The package-level default registry and tracer start nil, and every
// handle method (Counter.Add, Gauge.Set, Histogram.Observe, Span.End, …)
// is a nil-safe no-op. Instrumented code therefore calls
//
//	obs.Default().Counter("fleet_rounds_committed_total", "…").Inc()
//
// unconditionally: with no registry installed the chain is two nil checks
// and costs ~nothing — zero-config callers pay for neither allocations
// nor synchronisation. A process opts in explicitly, normally once at
// startup:
//
//	obs.SetDefault(obs.NewRegistry())
//	obs.SetDefaultTracer(obs.NewTracer(4096))
//
// Instrumentation records only timings and counts and never touches model
// RNG or numeric state, so trained weights are byte-identical with
// observability on or off (pinned by TestObservabilityNoPerturbation).
package obs

import "sync/atomic"

var (
	defaultRegistry atomic.Pointer[Registry]
	defaultTracer   atomic.Pointer[Tracer]
)

// Default returns the process-wide registry, or nil when observability is
// disabled. The nil registry is usable: every method on it (and on the
// nil handles it returns) is a no-op.
func Default() *Registry { return defaultRegistry.Load() }

// SetDefault installs r as the process-wide registry. Passing nil
// disables collection again. Safe for concurrent use; hot paths that
// cache handles re-resolve them when the pointer changes.
func SetDefault(r *Registry) { defaultRegistry.Store(r) }

// DefaultTracer returns the process-wide trace recorder, or nil when
// tracing is disabled (the nil tracer is a usable no-op).
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// SetDefaultTracer installs t as the process-wide tracer. Passing nil
// disables tracing again.
func SetDefaultTracer(t *Tracer) { defaultTracer.Store(t) }
