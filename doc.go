// Package edgetrain is a Go reproduction of "Training on the Edge: The why
// and the how" (Kukreja et al., IPPS 2019), built from scratch on the
// standard library. This root package holds no code: it documents the
// module and carries its cross-package tests and benchmarks.
//
// The public API is eight packages, each documented in its own package
// comment, plus the binaries under cmd/:
//
//   - schedule — the schedule vocabulary: the Action type, the one Schedule
//     type every planner emits and every executor runs, and the Validator
//     that alone decides whether an action is legal (behind Run, PeakBytes
//     and the chain executor).
//   - plan — the planning API: Build(name, spec, Options{...}) over one
//     static table of strategies ("revolve", "sequential", "storeall",
//     "twolevel", "auto").
//   - store — the pluggable checkpoint stores: RAM references, the bit-exact
//     disk codec, and the tiered store that really spills flash-tier slots.
//   - ckpt — the durable checkpoint format and crash-safe resume engine: a
//     framed binary format (per-frame type, length and CRC32) for a complete
//     training session, behind crash-safe saves (a ring of three slot files
//     overwritten in place, one fsync per save, Load falling back past a
//     torn slot) and one background saver. The same frame is the unit of the
//     coord wire protocol.
//   - compress — the update-compression pipeline for the paper's Section I
//     communication bottleneck: top-k sparsification with error feedback,
//     fp16/int8 quantization, framed entropy coding. Specs compose as strings
//     ("topk:0.05+int8+deflate"); "topk:1+fp64+raw" is lossless.
//   - obs — metrics registry, round-lifecycle trace recorder, the
//     /metrics, /healthz, /trace and /debug/pprof surface behind the
//     binaries' -metrics-addr flag, worker-to-coordinator telemetry shipping,
//     and obs/health's training-health rules. No-op by default, and never
//     perturbs training: weights are byte-identical with it on or off.
//   - fleet — executable multi-node training in one process: concurrent
//     heterogeneous workers whose budgets auto-select different checkpoint
//     strategies, non-IID shards, straggler / dropout / partial-participation
//     knobs, and deterministic aggregation by federated averaging or
//     synchronous gradient all-reduce. Its Core is the round engine — fold,
//     accounting, report, health rules, durable global state — that both this
//     package's loop and coord's stand on.
//   - coord — the same rounds over a real transport (TCP, or an in-process
//     loopback moving the same bytes): a coordinator process and elastic,
//     fault-tolerant edge workers — quorum and retry, reconnect with state
//     recovery, a durable coordinator, a seeded chaos transport. A
//     distributed run produces global weights byte-identical to fleet.Run.
//
// Both fleet.New and coord.New take a model factory returning an
// internal/chain.Chain, so those two are callable from this module's
// binaries and examples only; plan, schedule, store, ckpt, compress and obs
// are importable from anywhere.
//
// Under internal/ sits what the public packages are built from: tensor, nn
// and trainer (a small dense-tensor and neural-network stack with true
// forward and backward passes, so checkpointed backpropagation is validated
// against real gradients), checkpoint (the Revolve / binomial schedules, the
// checkpoint_sequential baseline and the recompute-factor search behind
// Figure 1, listed in plan's strategy table), chain (the executor that runs
// real networks under any schedule and reproduces baseline gradients exactly),
// resnet and memmodel (the ResNet specifications and the analytical memory
// model behind Tables I-III), and device, edgesim, vision and teacher (the
// Waggle / Array-of-Things context: node profiles, the fleet-scale
// cloud-vs-edge comparison, the synthetic viewpoint problem and the in-situ
// student-teacher pipeline).
//
// cmd/ holds the tools that regenerate every table and figure (memtable,
// figure1, revolveplan, edgetrainer, fleettrainer, aotsim) and the
// distributed pair (edgecoord, edgeworker); examples/ holds runnable
// walkthroughs; benchmark/ is the end-to-end benchmark every performance
// claim is judged with. See README.md for a guided tour.
package edgetrain
