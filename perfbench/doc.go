// Command perfbench is the repository's benchmark: it drives ADA the way
// the adaserve daemon does — one core.Registry of tenants on a shared
// calculation TCAM behind a serve.Server with one ingest shard — and reports
// the end-to-end and per-layer metrics that performance claims cite.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload skew-hot --seed 1 --seconds 30 --trace 0
//
// run.py builds this module into .bench_build and runs the binary with the
// same arguments; `go run .` from inside this directory works too, but then
// writes its span dumps under this directory's .bench_build.
//
// # Load shape
//
// The loop is closed: every tick, one producer goroutine ingests a window of
// batches through Server.Ingest/IngestPairs, Server.Drain waits until the
// shard worker has processed all of them, an injected clock advances one
// tick period, and Server.Tick runs the pacer. The window is smaller than
// the shard queue, so a shed batch is a real failure. The producer and the
// shard worker are the load's two threads. Every operand pool is generated
// from --seed before timing starts; each window picks its batches from the
// pools by a hash of seed and tick and is placed at its phase's peak before
// the window's clock starts. Because the clock is injected, every control
// decision depends only on the seed and the tick index, never on host speed.
// A cold start and a few untimed warm-up ticks precede measurement.
//
// # Workloads
//
//   - skew-hot: two unary tenants (square, log2) with 4096 entries at width
//     16 and adaserve's default 4096-slot lookup cache; Zipf s=1.1 operands
//     offset from a fixed peak; stationary; 4096-operand batches. The data
//     plane does the work and the cache and the intra-batch dedup do real
//     work. Only the staleness backstop triggers rounds, and they converge.
//   - uniform-cold: the same tables with uniform operands, so the cache hit
//     fraction is about cache size / domain and nearly every operand reaches
//     the physical index. A cache or dedup change that helps skew-hot must
//     not cost anything here.
//   - drift-churn: four unary and two binary multiply tenants at 1024
//     entries each, 1024-operand batches. The operand peak moves every
//     phase by an irrational step, so no phase revisits a region the
//     Algorithm 3 memo has already evaluated. Drift trigger, staleness, error
//     SLO, write budget, journal, periodic audit and the budget arbiter are
//     all armed; the SLO and the budget are set where they bind only on an
//     abnormal error or write burst. Round spacing equals the staleness
//     bound, so all six tenants round together every fifth tick: the control
//     plane does most of the host work, every round tick is the same
//     six-tenant round, and every commit advances the shared table's
//     snapshot, invalidating every tenant's cache and forcing an index
//     rebuild the next window pays for.
//
// # Metrics
//
// With --trace 0 the run measures, with tracing off: lookups_per_cpu_s
// (operands per second of the process CPU time spent inside ingest
// windows, the median over blocks of whole pacing periods), round_cpu_p50_ms
// and round_cpu_tail_ms (process CPU time of the Server.Tick calls that ran
// at least one round; the tail is the median over five consecutive segments
// of the run of each segment's highest percentile with at least ten samples
// beyond it, recorded with the per-segment sample count on the report
// line), mean_rel_err and p99_rel_err (sampled operands evaluated with
// Engine().Eval, which bypasses the monitor, against the exact operation as
// |approx − exact| / max(exact, 1), over a fixed number of measured ticks;
// the mean leaves out errors above the 99th percentile, where near-zero
// exact results make the relative error unbounded), setup_s (process CPU
// time, median of several cold starts, each from core.NewRegistry to the
// end of every tenant's first round) and heap_mb (live heap after a forced
// GC at a fixed measured tick minus live heap after input generation).
//
// The timings are CPU time, not wall time: on the
// shared two-CPU VM this benchmark was built on, the hypervisor took up to a
// quarter of the virtual CPUs' time in some minutes and almost none in
// others, which moved wall-clock figures by 20–30% between runs of the same
// seed. While the one shard worker is busy for the whole window, a window's
// CPU time equals its wall time on a dedicated host; a round's CPU time is
// the work of all its tenants, which run in parallel on two CPUs.
//
// TCAM writes per round are a per-layer metric (core.tcam_writes_per_round):
// converged rounds on the stationary workloads write nothing, and an
// end-to-end metric must never read zero.
//
// With --trace 1 the run records spans (bench.tick, bench.window,
// serve.Tick, core.SyncTenants through a serve.Cluster wrapper,
// monitor.ObserveAll and arith.EvalBatchInto, the last two called on the
// producer goroutine exactly as the shard worker calls them: every batch of
// a window observed, then every batch evaluated through a scratch armed as
// ObserveEvalAll arms it) and reports the per-layer metrics. Spans go to
// .bench_build/perfbench/spans-<workload>.jsonl. The run then replays the
// same seed for the same number of ticks untraced, fails unless both passes
// made identical control decisions, TCAM writes and errors, and reports the
// difference in wall time as the trace overhead.
//
// # Checks
//
// Every sampled operand's engine result is compared with a brute-force
// oracle over Registry.Table().Entries() in resolution order; the traced
// run also checks the cached, deduplicated EvalBatchInto results. Shed
// operands, lookup misses, oracle mismatches, degraded rounds and call
// errors count as failed operations. No-op guards fail a run in which a
// drift-churn phase shift is followed by no round that computed entries and
// wrote the TCAM, in which skew-hot's cache hit fraction is not above
// uniform-cold's (a short run of the other workload supplies the other
// side), or which ingests nothing.
//
// # Out of scope
//
// fabric (its parallelism cannot show on two cores and it is not on the
// Registry path), tcam.TieredStore (it backs private engines only), netsim,
// apps and pisa (they reproduce the paper's figures) and faults (a test
// seam). The CostModel delay is a model: it appears only as the per-layer
// controlplane.model_delay_ms_per_round, never as an end-to-end metric.
package main
