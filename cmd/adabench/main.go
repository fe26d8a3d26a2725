// Command adabench regenerates the paper's tables and figures, and the
// repository's nine committed benchmarks.
//
// Usage:
//
//	adabench [-out DIR] [-parallel N] [-zipf S] [experiment...]
//
// Experiments: cache dataplane fabric fig1a fig1b fig1c fig5 fig6 fig7a
// fig7b fig7c fig8 fig9 fig10 lookup recovery round serve table2 tenant
// tiered xcp all (default: all). cache is the lookup-cache experiment: a
// Zipf-skew × cache-size sweep comparing cached vs uncached single-thread
// eval throughput (plus standalone intra-batch dedup rows), with a built-in
// differential that drives a cached and an uncached control plane through
// identical churn, faults, audits, and a crash/restart and fails on any
// bitwise divergence. serve is the service-mode soak: identical
// phase-shifting workloads run once under the drift-paced pacer (with error
// SLO and rolling TCAM write budget) and once under the paper's fixed
// repopulation cadence, comparing round counts, TCAM writes, and error
// percentiles under tenant churn, injected faults, and a mid-soak
// crash/restart. Each prints the same rows/series the paper reports;
// see EXPERIMENTS.md for the paper-vs-measured record. recovery is the
// failure model v2 experiment: silent TCAM corruption against the read-back
// audit, measuring detection latency, anti-entropy repair writes vs full
// repopulation, and the arithmetic error of the corruption window. tiered
// sweeps error vs calculation budget for the tiered TCAM+SRAM store against
// a pure TCAM table: the tiered budgets extend 10× past the TCAM slice at
// unchanged ternary capacity, and a fingerprint differential proves the
// tiering is bit-identical to the pure reference. fabric shards dozens of
// drifting tenants across a 64-switch fabric and compares elastic
// rebalancing (switch-local arbiters plus cross-switch migration) against
// static equal placement, reporting aggregate error, per-switch round
// latency under injected faults, and the replay-scaling grid.
//
// -out DIR writes each named benchmark's typed result to DIR/BENCH_<name>.json
// (the committed baselines; `make bench-json` regenerates all nine) in
// addition to printing its table. Every file is one envelope,
// {"env": {...}, "result": ...}: env records the host (Go version, GOOS,
// GOARCH, NumCPU, GOMAXPROCS) and the build's VCS revision and modified
// flag ("unknown" when the binary carries no VCS stamp, as under `go run`).
// The paper figures have no artefact and write no file.
//
// -parallel sets the replay worker count for the experiments that feed
// operand streams through the monitoring path (fig7c, fig9, dataplane,
// fabric); 0 uses all cores, 1 restores the sequential replay. Results are
// worker-count independent — register increments are commutative.
//
// -zipf overrides the operand-stream Zipf exponent for the dataplane and
// serve experiments (0 = uniform draws; negative keeps each experiment's
// default workload); the chosen skew is recorded in the JSON rows so
// committed baselines are self-describing.
//
// adabench checks every input before it runs anything: an unknown
// experiment name, a missing -out directory or a negative -parallel is a
// usage error (usage text, exit status 2). Experiment failures exit 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/ada-repro/ada/internal/experiments"
)

var (
	outDir   = flag.String("out", "", "write each named benchmark's result to `DIR`/BENCH_<name>.json")
	parallel = flag.Int("parallel", 0, "replay workers for fig7c/fig9/lookup (0 = all cores)")
	zipfS    = flag.Float64("zipf", -1, "override the operand-stream Zipf exponent for dataplane and serve (0 = uniform; <0 = experiment default)")
)

// A runner produces one experiment's text table and, for the benchmarks,
// the typed result -out writes; figure runners return a nil artefact.
type runner func() (text string, artefact any, err error)

// figure adapts a paper figure's Run/Render pair to a runner result.
func figure[T any](render func(T) string) func(T, error) (string, any, error) {
	return func(v T, err error) (string, any, error) {
		if err != nil {
			return "", nil, err
		}
		return render(v), nil, nil
	}
}

// bench is figure for a benchmark: its typed result is also the artefact.
func bench[T any](render func(T) string) func(T, error) (string, any, error) {
	return func(v T, err error) (string, any, error) {
		if err != nil {
			return "", nil, err
		}
		return render(v), v, nil
	}
}

var runners = map[string]runner{
	"fig1a": func() (string, any, error) {
		return figure(experiments.RenderFig1a)(experiments.RunFig1a(experiments.DefaultFig1aConfig()))
	},
	"fig1b": func() (string, any, error) {
		return figure(experiments.RenderFig1b)(experiments.RunFig1b(experiments.DefaultFig1bConfig()))
	},
	"fig1c": func() (string, any, error) {
		return experiments.RenderFig1c(experiments.RunFig1c(experiments.DefaultFig1cConfig())), nil, nil
	},
	"fig5": func() (string, any, error) {
		return figure(experiments.RenderFig5)(experiments.RunFig5(experiments.DefaultFig5Config()))
	},
	"fig6": func() (string, any, error) {
		return figure(experiments.RenderFig6)(experiments.RunFig6(experiments.DefaultFig6Config()))
	},
	"fig7a": func() (string, any, error) {
		return figure(experiments.RenderFig7a)(experiments.RunFig7a(experiments.DefaultFig7aConfig()))
	},
	"fig7b": func() (string, any, error) {
		return experiments.RenderFig7b(experiments.RunFig7b([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})), nil, nil
	},
	"fig7c": func() (string, any, error) {
		cfg := experiments.DefaultFig7cConfig()
		cfg.Workers = *parallel
		return figure(experiments.RenderFig7c)(experiments.RunFig7c(cfg))
	},
	"fig8": func() (string, any, error) {
		return figure(experiments.RenderFig8)(experiments.RunFig8(experiments.DefaultFig8Config()))
	},
	"fig9": func() (string, any, error) {
		cfg := experiments.DefaultFig9Config()
		cfg.Workers = *parallel
		return figure(experiments.RenderFig9)(experiments.RunFig9(cfg))
	},
	"fig10": func() (string, any, error) {
		return figure(experiments.RenderFig10)(experiments.RunFig10(experiments.DefaultFig10Config()))
	},
	"xcp": func() (string, any, error) {
		return figure(experiments.RenderExtXCP)(experiments.RunExtXCP(experiments.DefaultExtXCPConfig()))
	},
	"table2": func() (string, any, error) {
		return figure(experiments.RenderTable2)(experiments.RunTable2(experiments.DefaultTable2Config()))
	},
	"lookup": func() (string, any, error) {
		cfg := experiments.DefaultLookupBenchConfig()
		if *parallel > 0 {
			cfg.Workers = []int{1, *parallel}
		}
		return bench(experiments.RenderLookupBench)(experiments.RunLookupBench(cfg))
	},
	"recovery": func() (string, any, error) {
		return bench(experiments.RenderRecoveryBench)(experiments.RunRecoveryBench(experiments.DefaultRecoveryBenchConfig()))
	},
	"round": func() (string, any, error) {
		return bench(experiments.RenderRoundBench)(experiments.RunRoundBench(experiments.DefaultRoundBenchConfig()))
	},
	"tiered": func() (string, any, error) {
		return bench(experiments.RenderTieredBench)(experiments.RunTieredBench(experiments.DefaultTieredBenchConfig()))
	},
	"fabric": func() (string, any, error) {
		cfg := experiments.DefaultFabricBenchConfig()
		if *parallel > 0 {
			cfg.Workers = *parallel
		}
		return bench(experiments.RenderFabricBench)(experiments.RunFabricBench(cfg))
	},
	"serve": func() (string, any, error) {
		cfg := experiments.DefaultServeBenchConfig()
		if *zipfS >= 0 {
			cfg.ZipfS = *zipfS
		}
		return bench(experiments.RenderServeBench)(experiments.RunServeBench(cfg))
	},
	"tenant": func() (string, any, error) {
		return bench(experiments.RenderTenantBench)(experiments.RunTenantBench(experiments.DefaultTenantBenchConfig()))
	},
	"dataplane": func() (string, any, error) {
		cfg := experiments.DefaultDataplaneBenchConfig()
		if *parallel > 0 {
			cfg.Workers = []int{1, *parallel}
		}
		if *zipfS >= 0 {
			cfg.ZipfS = *zipfS
		}
		return bench(experiments.RenderDataplaneBench)(experiments.RunDataplaneBench(cfg))
	},
	"cache": func() (string, any, error) {
		return bench(experiments.RenderCacheBench)(experiments.RunCacheBench(experiments.DefaultCacheBenchConfig()))
	},
}

func order() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// usageError marks input adabench rejects before running anything; main
// exits 2 on it and 1 on any other error.
type usageError struct{ error }

// validateFlags rejects flag values that parse but make no sense: a
// negative worker count, or an -out path that is not an existing
// directory.
func validateFlags(parallel int, out string) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	if out == "" {
		return nil
	}
	fi, err := os.Stat(out)
	if err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("-out: %s is not a directory", out)
	}
	return nil
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adabench [-out DIR] [-parallel N] [-zipf S] [experiment...]\nexperiments: %v all\n", order())
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args(), *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "adabench:", err)
		if errors.As(err, new(usageError)) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run checks every experiment name and the flags, then runs the named
// experiments in order ("all" or none: every one), printing each table
// and, when out is set, writing each non-nil artefact to
// out/BENCH_<name>.json.
func run(names []string, out string) error {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = order()
	}
	for _, name := range names {
		if _, ok := runners[name]; !ok {
			return usageError{fmt.Errorf("unknown experiment %q (want one of %v)", name, order())}
		}
	}
	if err := validateFlags(*parallel, out); err != nil {
		return usageError{err}
	}
	for _, name := range names {
		start := time.Now()
		text, artefact, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(text)
		if out != "" && artefact != nil {
			if err := writeArtefact(filepath.Join(out, "BENCH_"+name+".json"), artefact); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// benchEnv is the host block of every artefact, so a committed baseline
// says what machine and which build produced it.
type benchEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Revision and Modified are the build's vcs.revision and vcs.modified
	// stamps, or "unknown" when absent.
	Revision string `json:"revision"`
	Modified string `json:"modified"`
}

func hostEnv() benchEnv {
	env := benchEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value
			}
		}
	}
	return env
}

// writeArtefact writes result inside the {"env", "result"} envelope as
// indented JSON with a trailing newline — the one serialisation every
// committed BENCH_*.json shares.
func writeArtefact(path string, result any) error {
	data, err := json.MarshalIndent(struct {
		Env    benchEnv `json:"env"`
		Result any      `json:"result"`
	}{hostEnv(), result}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
