// Command edgecoord runs the fleet coordinator: it owns the global model and
// round state, listens for edge workers on TCP, drives the aggregation
// rounds, and prints the fleet report when the run completes. Workers join
// with cmd/edgeworker; a distributed run produces global weights
// byte-identical to the same configuration under cmd/fleettrainer.
//
// Usage:
//
//	edgecoord -workers 3 -rounds 4                  # wait for 3 workers
//	edgecoord -listen 0.0.0.0:7600 -agg allreduce   # fixed port, all-reduce
//	edgecoord -compress topk:0.05+int8+deflate      # sparsified, quantized updates
//	edgecoord -round-deadline 30s                   # straggler cap
//	edgecoord -liveness 2m                          # slow uplinks: a silent worker is cut off after 2 minutes
//	edgecoord -state-dir /var/lib/edgecoord         # durable: restart resumes the run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/edgeml/edgetrain/coord"
	"github.com/edgeml/edgetrain/internal/fleetdemo"
	"github.com/edgeml/edgetrain/internal/parallel"
	"github.com/edgeml/edgetrain/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP address to listen on (port 0 picks a free port)")
	workers := flag.Int("workers", 2, "fleet size: worker slots, which fixes the shard count")
	minWorkers := flag.Int("min-workers", 0, "workers required before round zero (0 = all slots)")
	rounds := flag.Int("rounds", 4, "aggregation rounds")
	localEpochs := flag.Int("local-epochs", 1, "fedavg local epochs per round")
	batch := flag.Int("batch", 0, "local batch size (0 = one full-shard batch)")
	samples := flag.Int("samples", 48, "total synthetic training samples across the fleet")
	agg := flag.String("agg", "fedavg", "aggregation mode: fedavg or allreduce")
	opt := flag.String("opt", "sgd", "optimizer: sgd, momentum or adam")
	lr := flag.Float64("lr", 0.05, "learning rate")
	seed := flag.Uint64("seed", 1, "random seed forwarded to workers")
	compressSpec := flag.String("compress", "", "update codec spec, e.g. topk:0.05+int8+deflate (empty or 'none' disables)")
	uplinkMbps := flag.Float64("uplink-mbps", 10, "modeled uplink rate behind the report's upload times")
	joinTimeout := flag.Duration("join-timeout", 30*time.Second, "how long to wait for the fleet to assemble")
	liveness := flag.Duration("liveness", 30*time.Second, "longest wait for a frame a worker owes; a worker silent this long is dropped (workers beat every liveness/30)")
	roundDeadline := flag.Duration("round-deadline", 0, "hard cap on one round's collection phase (0 disables)")
	stateDir := flag.String("state-dir", "", "durable state directory: checkpoint every round, resume on restart")
	roundRetries := flag.Int("round-retries", 0, "re-runs of a round that misses quorum (0 = default, negative disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this address (empty disables)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the metrics server up this long after the report prints")
	quiet := flag.Bool("quiet", false, "suppress per-event progress lines")
	flag.Parse()

	// The registry and tracer must be installed before coord.New: the
	// coordinator resolves its metric handles at construction.
	if *metricsAddr != "" {
		obs.SetDefault(obs.NewRegistry())
		obs.SetDefaultTracer(obs.NewTracer(obs.DefaultTraceEvents))
	}

	var logf func(format string, args ...any)
	if !*quiet {
		logf = obs.NewLog(os.Stderr, "coord", "").Printf
	}
	c, err := coord.New(coord.Config{
		Workers:       *workers,
		MinWorkers:    *minWorkers,
		Rounds:        *rounds,
		LocalEpochs:   *localEpochs,
		BatchSize:     *batch,
		Samples:       *samples,
		Seed:          *seed,
		Aggregator:    *agg,
		Optimizer:     *opt,
		LR:            *lr,
		JoinTimeout:   *joinTimeout,
		Liveness:      *liveness,
		RoundDeadline: *roundDeadline,
		StateDir:      *stateDir,
		RoundRetries:  *roundRetries,
		Compression:   *compressSpec,
		UplinkMbps:    *uplinkMbps,
		Logf:          logf,
	}, fleetdemo.Model(*seed))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Endpoints{Health: c.Health})
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		// Scraped by the metrics smoke test for the bound port.
		fmt.Printf("metrics on %s\n", bound)
	}

	addr, err := c.Start(&coord.TCP{}, *listen)
	if err != nil {
		log.Fatal(err)
	}
	// The smoke tests (and shell scripts) scrape this line for the bound port.
	fmt.Printf("listening on %s\n", addr)
	if r := c.StartRound(); r > 0 {
		fmt.Printf("resuming at round %d from %s\n", r, *stateDir)
	}
	fmt.Printf("coordinator: %d worker slots, %s aggregation, %d rounds, %d samples, %s lr %g\n",
		*workers, *agg, *rounds, *samples, *opt, *lr)
	if *compressSpec != "" && *compressSpec != "none" {
		fmt.Printf("update compression: %s at %g Mbps modeled uplink\n", *compressSpec, *uplinkMbps)
	}
	fmt.Printf("parallelism: %d workers (EDGETRAIN_WORKERS overrides)\n", parallel.Workers())

	rep, err := c.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Render())
	if *metricsAddr != "" && *metricsLinger > 0 {
		// Give a scraper a window to read the final counter values after
		// the report: the smoke test cross-checks /metrics against it.
		fmt.Printf("metrics linger: %s\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}
