// Command edgeworker runs one edge worker process: it dials the coordinator
// started by cmd/edgecoord, registers with a capability handshake (device
// profile, RAM budget, supported update codecs), pulls its shard and round
// assignments, trains locally with the existing chain/plan machinery, and
// pushes updates back until the run completes. It beats at the interval the
// coordinator's welcome sets whenever it computes between frames. A worker
// restarted under the same -name recovers its optimizer state from the
// coordinator, and its new connection replaces the old one if the
// coordinator still holds it.
//
// Usage:
//
//	edgeworker -addr 127.0.0.1:7600 -name w0
//	edgeworker -addr 127.0.0.1:7600 -name w1 -device rpi -budget 210KB
//	edgeworker -addr 127.0.0.1:7600 -name w2 -retry 100 -backoff-max 2s
//	edgeworker -addr 127.0.0.1:7600 -name w3 -compress none   # no codec capability
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/coord"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/fleetdemo"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
)

// codecsForFlag maps the -compress flag to the advertised codec capability:
// "all" (or empty) advertises every codec, "none" advertises none, and a
// codec spec like "topk:0.05+int8" advertises exactly what that spec needs.
func codecsForFlag(s string) ([]string, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "all":
		return nil, nil // nil means compress.AllCodecs to RunWorker
	case "none":
		return []string{}, nil
	}
	spec, err := compress.ParseSpec(s)
	if err != nil {
		return nil, err
	}
	req := spec.Required()
	if req == nil {
		req = []string{}
	}
	return req, nil
}

func main() {
	addr := flag.String("addr", "", "coordinator address (required)")
	name := flag.String("name", "", "worker name — the rejoin identity (required)")
	deviceName := flag.String("device", "waggle", "device profile: waggle, jetson, rpi or cloud")
	budget := flag.String("budget", "device", "RAM budget: 'device' (the node's memory) or a size like 210KB")
	codecCap := flag.String("compress", "all", "update codecs to advertise: 'all', 'none', or a spec like topk:0.05+int8+deflate")
	retry := flag.Int("retry", 0, "reconnect attempts after a lost connection (0 = default 5, negative disables)")
	backoffMax := flag.Duration("backoff-max", 0, "cap on the reconnect backoff (0 = default 5s)")
	spill := flag.String("spill-dir", "", "directory for tiered checkpoint spill (default in-memory)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this address (empty disables; also enables telemetry shipping to the coordinator)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the metrics server up this long after the run completes")
	quiet := flag.Bool("quiet", false, "suppress per-round progress lines")
	flag.Parse()

	if *addr == "" || *name == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Installing the registry and tracer turns on both the local HTTP
	// surface and telemetry shipping: RunWorker piggybacks delta snapshots
	// of these defaults on its heartbeats and updates, so the coordinator's
	// /metrics carries this worker's series under worker=<name> labels.
	var done atomic.Bool
	if *metricsAddr != "" {
		obs.SetDefault(obs.NewRegistry())
		obs.SetDefaultTracer(obs.NewTracer(obs.DefaultTraceEvents))
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Endpoints{Health: func() obs.Health {
			h := obs.Health{Status: "training"}
			if done.Load() {
				h.Status = "done"
			}
			return h
		}})
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		// Scraped by the telemetry smoke test for the bound port.
		fmt.Printf("metrics on %s\n", bound)
	}
	dev, err := device.ByName(*deviceName)
	if err != nil {
		log.Fatal(err)
	}
	spec := fleet.WorkerSpec{Name: *name, Device: dev, SpillDir: *spill}
	if *budget != "" && *budget != "device" {
		b, err := memmodel.ParseBytes(*budget)
		if err != nil {
			log.Fatal(err)
		}
		spec.BudgetBytes = b
	}
	codecs, err := codecsForFlag(*codecCap)
	if err != nil {
		log.Fatal(err)
	}
	var logf func(format string, args ...any)
	if !*quiet {
		logf = obs.NewLog(os.Stdout, "worker", *name).Printf
	}

	res, err := coord.RunWorker(&coord.TCP{}, *addr, coord.WorkerOptions{
		Spec: spec,
		Model: func(a coord.Assignment) (*chain.Chain, error) {
			return fleetdemo.Model(a.Seed)()
		},
		Dataset: func(a coord.Assignment) (trainer.Dataset, error) {
			return fleetdemo.Dataset(a.Workers, a.Samples, a.Seed), nil
		},
		Codecs:     codecs,
		Retries:    *retry,
		BackoffMax: *backoffMax,
		Logf:       logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	done.Store(true)
	fmt.Printf("worker %s done: slot %d, %d rounds contributed, %.2f MB sent, %.2f MB received\n",
		*name, res.Assignment.Index, res.Rounds,
		float64(res.WireSent)/1e6, float64(res.WireReceived)/1e6)
	if res.Restored {
		fmt.Println("recovered optimizer state from the coordinator on rejoin")
	}
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Printf("metrics linger: %s\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}
