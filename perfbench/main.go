package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// outDir holds the span dumps, relative to the directory the benchmark
// runs from (the repository root).
const outDir = ".bench_build/perfbench"

// cacheProbeTicks is the length of the counterpart run the cache no-op
// guard compares against.
const cacheProbeTicks = 20

// counterpart pairs the two cache workloads for the cache no-op guard.
var counterpart = map[string]string{"skew-hot": "uniform-cold", "uniform-cold": "skew-hot"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment identifies the host, the build and the run's inputs.
type environment struct {
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Revision   string    `json:"vcs_revision"`
	Modified   string    `json:"vcs_modified"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      int       `json:"trace"`
	Workload   *workload `json:"workload"`
}

// report is the run's detail line, printed before the result: everything
// a reader needs to interpret the metrics that does not fit the result.
type report struct {
	Env          environment        `json:"env"`
	Ticks        int                `json:"ticks"`
	TenantRounds int                `json:"tenant_rounds"`
	RoundTicks   int                `json:"round_ticks"`
	Causes       map[string]int     `json:"causes"`
	TailPct      float64            `json:"round_tail_percentile"`
	TailSamples  int                `json:"round_tail_samples_per_segment"`
	SetupS       []float64          `json:"setup_s_samples,omitempty"`
	ErrSamples   int                `json:"rel_err_samples"`
	Failures     map[string]any     `json:"failures"`
	CacheGuard   map[string]float64 `json:"cache_hit_frac_guard,omitempty"`
	Guards       []string           `json:"guard_failures"`
	Determinism  string             `json:"determinism,omitempty"`
	Overhead     float64            `json:"trace_overhead_frac,omitempty"`
	SpansFile    string             `json:"spans_file,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: skew-hot, uniform-cold or drift-churn")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rep := &report{Env: newEnvironment(w, *seed, *seconds, *trace), Failures: map[string]any{}}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = endToEnd(context.Background(), w, *seed, dur, rep)
	} else {
		res, err = traced(context.Background(), w, *seed, dur, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func newEnvironment(w *workload, seed int64, seconds, trace int) environment {
	e := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Workload:   w,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value
			}
		}
	}
	return e
}

// liveHeap returns the live heap in bytes after forced collections (two,
// so pooled objects parked in the victim cache are freed too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd is the untraced run: SetupReps timed cold starts, the last of
// which is then measured for d.
func endToEnd(ctx context.Context, w *workload, seed int64, d time.Duration, rep *report) (*result, error) {
	in := generate(w, seed)
	heap0 := liveHeap()
	var p *pass
	for r := 0; r < w.SetupReps; r++ {
		q, took, err := coldStart(ctx, w, in, nil)
		if err != nil {
			if p != nil {
				p.sys.close()
			}
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, took.Seconds())
		if p != nil {
			p.sys.close()
		}
		p = q
	}
	if err := p.warmUp(); err != nil {
		p.sys.close()
		return nil, err
	}
	deadline := time.Now().Add(d)
	err := p.run(func(int) bool { return time.Now().Before(deadline) })
	heap1 := p.tl.heap
	if heap1 == 0 {
		heap1 = liveHeap() // the run ended before FixedTicks
	}
	runtime.KeepAlive(in)
	p.sys.close()
	if err != nil {
		return nil, err
	}

	tl := p.tl
	res := &result{Metrics: map[string]metric{}}
	fillCommon(rep, res, w, tl)
	guards(ctx, w, seed, tl, rep)

	sorted := sortedCopy(tl.roundCPUMs)
	tail, pct, per := segmentedTail(tl.roundCPUMs)
	rep.TailPct, rep.TailSamples = pct, per
	mean, p99 := errStats(tl.relErrs)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("lookups_per_cpu_s", "1/s", tl.lookupRate(w.BlockTicks))
	put("round_cpu_p50_ms", "ms", quantile(sorted, 0.5))
	put("round_cpu_tail_ms", "ms", tail)
	put("mean_rel_err", "ratio", mean)
	put("p99_rel_err", "ratio", p99)
	put("setup_s", "s", quantile(sortedCopy(rep.SetupS), 0.5))
	put("heap_mb", "MB", (float64(heap1)-float64(heap0))/(1<<20))
	res.Correct = len(rep.Guards) == 0 && res.Failed == 0
	return res, nil
}

// traced is the per-layer run: a traced pass measured for d, then an
// untraced replay of exactly as many ticks, which must reproduce the traced
// pass's control decisions, writes and errors.
func traced(ctx context.Context, w *workload, seed int64, d time.Duration, rep *report) (*result, error) {
	in := generate(w, seed)
	rec := newRecorder()
	p, err := start(ctx, w, in, rec)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(d)
	runErr := p.run(func(int) bool { return time.Now().Before(deadline) })
	p.sys.close()
	if runErr != nil {
		return nil, runErr
	}
	ticks := p.tl.ticks
	q, err := start(ctx, w, in, nil)
	if err != nil {
		return nil, err
	}
	runErr = q.run(func(done int) bool { return done < ticks })
	q.sys.close()
	if runErr != nil {
		return nil, runErr
	}

	tl, un := p.tl, q.tl
	res := &result{Metrics: map[string]metric{}}
	fillCommon(rep, res, w, tl)
	res.Attempted += un.attempted()
	res.Failed += un.failed()
	rep.Failures["replay_failed"] = un.failed()
	rep.Determinism = "identical"
	if d := determinism(tl, un); d != "" {
		rep.Determinism = d
		rep.Guards = append(rep.Guards, "determinism: "+d)
	}
	guards(ctx, w, seed, un, rep)
	rep.Overhead = float64(p.wall-q.wall) / float64(q.wall)
	rep.SpansFile = filepath.Join(outDir, "spans-"+w.Name+".jsonl")
	if err := rec.write(rep.SpansFile); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	ss := analyseSpans(rec.spans)
	sys := p.sys
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("serve.tick_self_ms", "ms", quantile(sortedCopy(ss.tickSelfMs), 0.5))
	perTick := func(n int) float64 { return ratio(float64(n), float64(tl.ticks)) }
	put("serve.rounds_drift", "1/tick", perTick(tl.causes["drift"]))
	put("serve.rounds_slo", "1/tick", perTick(tl.causes["slo"]))
	put("serve.rounds_staleness", "1/tick", perTick(tl.causes["staleness"]))
	put("serve.suppressed_budget", "1/tick", perTick(tl.suppressed["budget"]))
	put("serve.suppressed_spacing", "1/tick", perTick(tl.suppressed["spacing"]))
	put("serve.ticks", "count", float64(tl.ticks))
	put("serve.shed_frac", "ratio", ratio(float64(un.shed), float64(un.offered)))
	put("serve.handoff_frac", "ratio", 1-ratio(float64(ss.observeNs+ss.evalNs), float64(un.windowNs)))
	put("core.sync_ms", "ms", quantile(sortedCopy(ss.syncMs), 0.5))
	put("core.tcam_writes_per_round", "count", tl.perRound(float64(tl.tcamWrites)))
	put("core.tenants_per_sync", "count", ratio(float64(ss.syncTenants), float64(len(ss.syncMs))))
	put("controlplane.reads_per_round", "count", tl.perRound(float64(tl.reads)))
	put("controlplane.register_writes_per_round", "count", tl.perRound(float64(tl.regWrites)))
	put("controlplane.rebalances_per_round", "count", tl.perRound(float64(tl.rebalances)))
	put("controlplane.expansions", "1/tick", perTick(tl.expansions))
	put("controlplane.journal_records_per_round", "count", tl.perRound(float64(tl.end.journal-tl.start.journal)))
	put("controlplane.audits", "1/tick", perTick(tl.audits))
	put("controlplane.audit_mismatches", "count", float64(tl.mismatches))
	put("controlplane.degraded_rounds", "count", float64(tl.degraded))
	put("controlplane.model_delay_ms_per_round", "ms", tl.perRound(float64(tl.modelDelay)/1e6))
	put("population.computed_per_round", "count", tl.perRound(float64(tl.computed)))
	put("population.reuse_frac", "ratio", ratio(float64(tl.reused), float64(tl.computed+tl.reused)))
	put("trie.bins", "count", ratio(float64(tl.binsSum), float64(tl.binsN)))
	put("tenant.budget_moved_per_round", "count", tl.perRound(float64(tl.budgetMoved)))
	put("monitor.observe_ns_per_op", "ns", ratio(float64(ss.observeNs), float64(ss.observeOps)))
	put("monitor.saturations", "count", float64(tl.end.saturations-tl.start.saturations))
	put("arith.eval_ns_per_op", "ns", ratio(float64(ss.evalNs), float64(ss.evalOps)))
	put("arith.allocs_per_batch", "count", ratio(float64(tl.evalAllocs), float64(tl.evalBatches)))
	put("arith.misses", "count", float64(tl.evalMisses))
	put("tcam.cache_hit_frac", "ratio", un.cacheHitFrac())
	put("tcam.cache_invalidations_per_round", "count", un.perRound(un.end.cacheInv-un.start.cacheInv))
	put("tcam.index_lookups_per_op", "ratio", ratio(float64(un.windowLookups), float64(un.operands)))
	put("tcam.row_writes_per_round", "count", tl.perRound(float64(tl.end.physRowWrites-tl.start.physRowWrites)))
	put("tcam.rows", "count", float64(sys.reg.Table().Len()))
	put("trace.overhead_frac", "ratio", rep.Overhead)
	res.Correct = len(rep.Guards) == 0 && res.Failed == 0
	return res, nil
}

// fillCommon records the tallies every run reports.
func fillCommon(rep *report, res *result, w *workload, tl *tally) {
	rep.Ticks = tl.ticks
	rep.TenantRounds = tl.tenantRounds
	rep.RoundTicks = len(tl.roundCPUMs)
	rep.Causes = tl.causes
	rep.ErrSamples = len(tl.relErrs)
	rep.Failures["shed_operands"] = tl.shed
	rep.Failures["serve_misses"] = tl.end.serveMisses - tl.start.serveMisses
	rep.Failures["eval_misses"] = tl.evalMisses
	rep.Failures["sample_misses"] = tl.lookupMisses
	rep.Failures["oracle_mismatches"] = tl.oracleMismatches
	rep.Failures["oracle_checks"] = tl.oracleChecks
	rep.Failures["degraded_rounds"] = tl.degraded
	rep.Failures["call_errors"] = tl.callErrors
	res.Attempted = tl.attempted()
	res.Failed = tl.failed()
	if tl.operands == 0 {
		rep.Guards = append(rep.Guards, w.Name+" ingested nothing")
	}
	if w.PhaseLen > 0 {
		if s := tl.phaseGuard(w.PhaseLen); s >= 0 {
			rep.Guards = append(rep.Guards, fmt.Sprintf(
				"phase shift at tick %d was followed by no round that computed entries and wrote the TCAM", s))
		}
	}
}

// guards runs the cache no-op guard: a skew-hot hit fraction must exceed
// uniform-cold's. The measured pass supplies one side and a short run of
// the counterpart workload on the same seed the other.
func guards(ctx context.Context, w *workload, seed int64, tl *tally, rep *report) {
	other, ok := counterpart[w.Name]
	if !ok {
		return
	}
	ow, _ := lookupWorkload(other)
	ow.PoolBatches = 12
	op, _, err := coldStart(ctx, ow, generate(ow, seed), nil)
	if err != nil {
		rep.Guards = append(rep.Guards, "cache probe: "+err.Error())
		return
	}
	err = op.run(func(done int) bool { return done < cacheProbeTicks })
	op.sys.close()
	if err != nil {
		rep.Guards = append(rep.Guards, "cache probe: "+err.Error())
		return
	}
	own, theirs := tl.cacheHitFrac(), op.tl.cacheHitFrac()
	skew, uni := own, theirs
	if w.Name != "skew-hot" {
		skew, uni = theirs, own
	}
	rep.CacheGuard = map[string]float64{"skew-hot": skew, "uniform-cold": uni}
	if !(skew > uni) {
		rep.Guards = append(rep.Guards, fmt.Sprintf(
			"skew-hot cache hit fraction %.4f is not above uniform-cold's %.4f", skew, uni))
	}
}

// determinism compares the traced pass with its untraced replay ("" when
// they agree exactly).
func determinism(a, b *tally) string {
	var errs []error
	check := func(what string, x, y any) {
		if x != y {
			errs = append(errs, fmt.Errorf("%s %v vs %v", what, x, y))
		}
	}
	check("ticks", a.ticks, b.ticks)
	check("tenant rounds", a.tenantRounds, b.tenantRounds)
	check("round digest", a.digest.Sum64(), b.digest.Sum64())
	check("tcam writes per round", a.perRound(float64(a.tcamWrites)), b.perRound(float64(b.tcamWrites)))
	am, ap := errStats(a.relErrs)
	bm, bp := errStats(b.relErrs)
	check("mean rel err", am, bm)
	check("p99 rel err", ap, bp)
	if err := errors.Join(errs...); err != nil {
		return err.Error()
	}
	return ""
}

// spanStats are the per-layer sums and samples of the measured ticks.
type spanStats struct {
	tickSelfMs, syncMs  []float64
	syncTenants         int
	observeNs, evalNs   int64
	observeOps, evalOps int64
}

// analyseSpans derives per-layer numbers from the spans of ticks >= 1.
// serve.Tick's self time counts only the ticks that synced, i.e. the
// same set round_cpu_p50_ms measures.
func analyseSpans(spans []span) spanStats {
	var ss spanStats
	syncUnder := make(map[int]int64)
	for _, s := range spans {
		if s.Tick < 1 {
			continue
		}
		switch s.Name {
		case spanSync:
			syncUnder[s.Parent] += s.dur()
			ss.syncMs = append(ss.syncMs, float64(s.dur())/1e6)
			ss.syncTenants += s.Ops
		case spanObserve:
			ss.observeNs += s.dur()
			ss.observeOps += int64(s.Ops)
		case spanEval:
			ss.evalNs += s.dur()
			ss.evalOps += int64(s.Ops)
		}
	}
	for i, s := range spans {
		if s.Tick < 1 || s.Name != spanServe {
			continue
		}
		if child, ok := syncUnder[i]; ok {
			ss.tickSelfMs = append(ss.tickSelfMs, float64(s.dur()-child)/1e6)
		}
	}
	return ss
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailSegments is how many consecutive segments round_cpu_tail_ms splits a
// run's round ticks into.
const tailSegments = 5

// segmentedTail splits samples, in measurement order, into tailSegments
// consecutive segments of equal count and returns the median over the
// segments of each one's tailValue, the median percentile, and the
// segment size. A burst of host interference lands in one segment's tail
// and leaves the median of five alone.
func segmentedTail(samples []float64) (value, pct float64, per int) {
	per = len(samples) / tailSegments
	if per == 0 {
		v, p := tailValue(sortedCopy(samples))
		return v, p, len(samples)
	}
	var vals, pcts []float64
	for i := 0; i < tailSegments; i++ {
		v, p := tailValue(sortedCopy(samples[i*per : (i+1)*per]))
		vals, pcts = append(vals, v), append(pcts, p)
	}
	return quantile(sortedCopy(vals), 0.5), quantile(sortedCopy(pcts), 0.5), per
}

// tailValue is the highest percentile with at least ten samples beyond it:
// the eleventh-largest value, at percentile 100·(n−10)/n. With ten or fewer
// samples it falls back to the maximum.
func tailValue(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// errStats returns the mean of the per-lookup relative errors at or below
// their 99th percentile, and that percentile. The mean leaves out the top
// hundredth because a relative error near a zero exact result is unbounded
// (|approx − exact| / max(exact, 1)): one such operand would otherwise set
// the mean of a whole run.
func errStats(errs []float64) (mean, p99 float64) {
	if len(errs) == 0 {
		return 0, 0
	}
	sorted := sortedCopy(errs)
	p99 = quantile(sorted, 0.99)
	var sum float64
	var n int
	for _, e := range sorted {
		if e > p99 {
			break
		}
		sum += e
		n++
	}
	return sum / float64(n), p99
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
