// Package ada is a Go reproduction of "ADA: Arithmetic Operations with
// Adaptive TCAM Population in Programmable Switches" (Malekpourshahraki,
// Stephens, Vamanan — ICDCS 2022).
//
// PISA switches cannot multiply or divide at line rate; prior work emulates
// those operations with TCAM lookup tables populated over fixed,
// distribution-agnostic operand ranges. ADA instead learns the operand
// distribution in the data plane (a monitoring TCAM whose wildcard entries
// are the leaves of a binning trie, one hit register per bin), adapts the
// trie in the control plane (splitting hot bins, merging cold ones), and
// repopulates the calculation TCAM so that frequently accessed operand
// intervals get proportionally finer entries.
//
// The implementation is organised bottom-up:
//
//   - internal/bitstr: wildcard prefix algebra (the 0^p 1 (0|1)^s x^r form)
//   - internal/tcam: ternary match tables with LPM resolution and capacity
//   - internal/dist: operand distribution generators and histograms
//   - internal/trie: the binning trie (Algorithms 1 and 2)
//   - internal/population: calculation-table population schemes (naive,
//     sig-bits, logarithmic, and ADA's Algorithm 3)
//   - internal/arith: TCAM-backed arithmetic engines and error metrics
//   - internal/monitor: the data-plane monitoring pipeline
//   - internal/controlplane: the adaptation controller and delay model
//   - internal/core: the ADA system façade (paper §III)
//   - internal/pisa: PISA pipeline constraints and resource accounting
//   - internal/netsim: a packet-level discrete-event network simulator
//   - internal/apps: Nimble, RCP arithmetic, heavy-hitter applications
//   - internal/experiments: one generator per paper table/figure
//
// cmd/adabench runs every experiment, prints its series as a text table and,
// with -out, writes the nine benchmarks' BENCH_*.json files;
// internal/experiments' tests assert on each figure, and
// ablation_bench_test.go in this directory quantifies the design choices.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package ada
