package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/tcam"
)

// DataplaneBenchConfig parameterises the data-plane throughput benchmark:
// the zero-allocation typed hot path (ObserveEvalAll with per-worker scratch
// buffers) against a faithful replica of the pre-change path (per-batch
// allocations, interface assertions per sample, a shared register slice
// updated through a CAS loop), swept over replay worker counts for the
// unary and binary pipelines.
type DataplaneBenchConfig struct {
	// Samples is the operand stream length per measurement.
	Samples int
	// Batch is the replay sub-batch size (the per-worker unit the scratch
	// buffers amortise over).
	Batch int
	// Workers are the replay goroutine counts swept.
	Workers []int
	// Width is the operand width in bits.
	Width int
	// Seed drives stream generation.
	Seed int64
	// WarmRounds is the number of observe+Sync rounds that shape the
	// monitoring and calculation tables before measurement.
	WarmRounds int
	// ZipfS skews the operand streams with a bounded Zipf draw of this
	// exponent (hot ranks scattered across the domain). 0 keeps the
	// historical uniform streams.
	ZipfS float64
}

// DefaultDataplaneBenchConfig measures 400k samples in 1k batches across
// 1, 2, and 4 workers — long enough for stable throughput numbers, short
// enough for the CI acceptance run.
func DefaultDataplaneBenchConfig() DataplaneBenchConfig {
	return DataplaneBenchConfig{
		Samples:    400_000,
		Batch:      1024,
		Workers:    []int{1, 2, 4},
		Width:      16,
		Seed:       43,
		WarmRounds: 2,
	}
}

// DataplanePoint is one worker count's throughput (median across trials)
// and allocation cost (worst trial) for both paths.
type DataplanePoint struct {
	// Workers is the replay goroutine count.
	Workers int `json:"workers"`
	// BaselineSamplesSec is the pre-change replica's throughput.
	BaselineSamplesSec float64 `json:"baseline_samples_per_sec"`
	// TypedSamplesSec is the typed zero-allocation path's throughput.
	TypedSamplesSec float64 `json:"typed_samples_per_sec"`
	// BaselineAllocsBatch and TypedAllocsBatch are heap allocations per
	// observed batch (runtime mallocs delta over batch count).
	BaselineAllocsBatch float64 `json:"baseline_allocs_per_batch"`
	TypedAllocsBatch    float64 `json:"typed_allocs_per_batch"`
	// Speedup is TypedSamplesSec / BaselineSamplesSec at this worker count.
	Speedup float64 `json:"speedup"`
}

// DataplaneBenchRow is one pipeline's (unary or binary) sweep.
type DataplaneBenchRow struct {
	// Path is "unary" or "binary".
	Path string `json:"path"`
	// Samples and Batch echo the measurement shape; ZipfS is the operand
	// skew the streams were drawn with (0 = uniform).
	Samples int     `json:"samples"`
	Batch   int     `json:"batch"`
	ZipfS   float64 `json:"zipf_s"`
	// Points is the per-worker-count sweep.
	Points []DataplanePoint `json:"points"`
	// BestSpeedup is the largest same-worker-count typed/baseline ratio.
	BestSpeedup float64 `json:"best_speedup"`
	// ScalingImprovement is the typed path's best throughput at any worker
	// count over the pre-change baseline at one worker — the end-to-end
	// single-thread→multi-worker gain the refactor delivers — as the median
	// of the per-trial ratios; ScalingMin and ScalingMax are their spread.
	ScalingImprovement float64 `json:"scaling_improvement"`
	ScalingMin         float64 `json:"scaling_min"`
	ScalingMax         float64 `json:"scaling_max"`
}

// baselineUnary replicates the pre-change unary observe+eval pipeline
// against the live tables: masked keys into a fresh buffer per batch,
// per-sample trie-walk lookups returning entry pointers (the range-compiled
// fast path did not exist), a `Data.(int)` / `Data.(uint64)` assertion per
// sample, registers bumped through a per-increment CAS loop on one shared
// slice, and a fresh result slice per batch.
type baselineUnary struct {
	monTable *tcam.Table
	store    *tcam.Table
	regs     []uint64
	bins     int
	mask     uint64
	regMax   uint64
}

func (b *baselineUnary) observe(xs []uint64) {
	keys := make([]uint64, len(xs))
	for i, v := range xs {
		keys[i] = v & b.mask
	}
	for _, e := range b.monTable.LookupSingleBatchTrie(keys, nil) {
		if e == nil {
			continue
		}
		idx, ok := e.Data.(int)
		if !ok || idx < 0 || idx >= b.bins {
			continue
		}
		for {
			cur := atomic.LoadUint64(&b.regs[idx])
			if cur >= b.regMax {
				break
			}
			if atomic.CompareAndSwapUint64(&b.regs[idx], cur, cur+1) {
				break
			}
		}
	}
}

func (b *baselineUnary) observeEval(xs []uint64) ([]uint64, int) {
	b.observe(xs)
	results := make([]uint64, len(xs))
	misses := 0
	for i, en := range b.store.LookupSingleBatchTrie(xs, nil) {
		if en == nil {
			misses++
			continue
		}
		r, ok := en.Data.(uint64)
		if !ok {
			misses++
			continue
		}
		results[i] = r
	}
	return results, misses
}

// baselineBinary is the two-operand replica: per-pair key sub-slices into
// LookupBatch for the calculation table, one baselineUnary-style monitor
// replica per operand.
type baselineBinary struct {
	monX, monY baselineUnary
	store      *tcam.Table
}

func (b *baselineBinary) observeEval(xs, ys []uint64) ([]uint64, int) {
	b.monX.observe(xs)
	b.monY.observe(ys)
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	keys := make([][]uint64, n)
	buf := make([]uint64, 2*n)
	for i := 0; i < n; i++ {
		k := buf[2*i : 2*i+2 : 2*i+2]
		k[0], k[1] = xs[i], ys[i]
		keys[i] = k
	}
	results := make([]uint64, n)
	misses := 0
	for i, en := range b.store.LookupBatch(keys) {
		if en == nil {
			misses++
			continue
		}
		r, ok := en.Data.(uint64)
		if !ok {
			misses++
			continue
		}
		results[i] = r
	}
	return results, misses
}

func newBaselineUnary(mon *monitor.Monitor, store *tcam.Table) baselineUnary {
	mask := ^uint64(0)
	if w := mon.Width(); w < 64 {
		mask = uint64(1)<<uint(w) - 1
	}
	return baselineUnary{
		monTable: mon.Table(),
		store:    store,
		regs:     make([]uint64, mon.NumBins()),
		bins:     mon.NumBins(),
		mask:     mask,
		regMax:   uint64(1)<<monitor.DefaultRegisterBits - 1,
	}
}

// measure times fn over the stream and reports samples/sec plus heap
// allocations per batch.
func measure(samples, batches int, fn func()) (samplesSec, allocsBatch float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	samplesSec = float64(samples) / elapsed.Seconds()
	allocsBatch = float64(after.Mallocs-before.Mallocs) / float64(batches)
	return samplesSec, allocsBatch
}

func batchCount(n, batch int) int {
	if batch <= 0 {
		return 1
	}
	return (n + batch - 1) / batch
}

// verifyUnary proves the typed path bit-identical to the baseline replica
// on the given stream: same results, same miss count, same per-bin register
// state. The monitor must be freshly reset; it is reset again on return.
func verifyUnary(sys *core.UnarySystem, base *baselineUnary, xs []uint64, batch int) error {
	mon := sys.Controller().Monitor()
	mon.Reset()
	for i := range base.regs {
		base.regs[i] = 0
	}
	var sc arith.Scratch
	var dst []uint64
	for lo := 0; lo < len(xs); lo += batch {
		hi := lo + batch
		if hi > len(xs) {
			hi = len(xs)
		}
		baseRes, baseMiss := base.observeEval(xs[lo:hi])
		var typedMiss int
		dst, typedMiss = sys.ObserveEvalAll(dst, xs[lo:hi], &sc)
		if typedMiss != baseMiss {
			return fmt.Errorf("dataplanebench: unary miss count diverged: typed %d, baseline %d", typedMiss, baseMiss)
		}
		for i := range baseRes {
			if dst[i] != baseRes[i] {
				return fmt.Errorf("dataplanebench: unary result diverged at sample %d: typed %d, baseline %d", lo+i, dst[i], baseRes[i])
			}
		}
	}
	snap := mon.SnapshotAndReset()
	for i, v := range snap {
		if v != base.regs[i] {
			return fmt.Errorf("dataplanebench: unary register %d diverged: typed %d, baseline %d", i, v, base.regs[i])
		}
	}
	return nil
}

// verifyBinary is verifyUnary for the two-operand pipeline.
func verifyBinary(sys *core.BinarySystem, base *baselineBinary, xs, ys []uint64, batch int) error {
	monX, monY := sys.ControllerX().Monitor(), sys.ControllerY().Monitor()
	monX.Reset()
	monY.Reset()
	for i := range base.monX.regs {
		base.monX.regs[i] = 0
	}
	for i := range base.monY.regs {
		base.monY.regs[i] = 0
	}
	var sc arith.Scratch
	var dst []uint64
	for lo := 0; lo < len(xs); lo += batch {
		hi := lo + batch
		if hi > len(xs) {
			hi = len(xs)
		}
		baseRes, baseMiss := base.observeEval(xs[lo:hi], ys[lo:hi])
		var typedMiss int
		dst, typedMiss = sys.ObserveEvalAll(dst, xs[lo:hi], ys[lo:hi], &sc)
		if typedMiss != baseMiss {
			return fmt.Errorf("dataplanebench: binary miss count diverged: typed %d, baseline %d", typedMiss, baseMiss)
		}
		for i := range baseRes {
			if dst[i] != baseRes[i] {
				return fmt.Errorf("dataplanebench: binary result diverged at sample %d: typed %d, baseline %d", lo+i, dst[i], baseRes[i])
			}
		}
	}
	for v, pair := range map[string][2][]uint64{
		"x": {monX.SnapshotAndReset(), base.monX.regs},
		"y": {monY.SnapshotAndReset(), base.monY.regs},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				return fmt.Errorf("dataplanebench: binary %s register %d diverged: typed %d, baseline %d", v, i, pair[0][i], pair[1][i])
			}
		}
	}
	return nil
}

// dataplaneTrials is the number of interleaved trials per worker sweep;
// the scaling gate reads the median per-trial ratio. Race-instrumented test
// binaries, which skip the gate, set it to 1.
var dataplaneTrials = 5

// sweepWorkers fills row.Points and the row's headline ratios from
// dataplaneTrials interleaved trials. One trial times the baseline, then
// the typed path, at each worker count in turn, so the 1-worker baseline
// and every typed point of a trial share its warm state and any drift
// between trials lands on both sides of the trial's scaling ratio (best
// typed throughput over the 1-worker baseline). Points report the median
// throughput per path and the worst allocation count across trials.
func sweepWorkers(row *DataplaneBenchRow, workers []int, batches int, baseline, typed func(w int) func()) {
	n := len(workers)
	baseRuns, typedRuns := make([]func(), n), make([]func(), n)
	baseSec, typedSec := make([][]float64, n), make([][]float64, n)
	for j, w := range workers {
		baseRuns[j], typedRuns[j] = baseline(w), typed(w)
	}
	row.Points = make([]DataplanePoint, n)
	var ratios []float64
	for range dataplaneTrials {
		var base1, bestTyped float64
		for j, w := range workers {
			p := &row.Points[j]
			bs, ba := measure(row.Samples, batches, baseRuns[j])
			ts, ta := measure(row.Samples, batches, typedRuns[j])
			baseSec[j] = append(baseSec[j], bs)
			typedSec[j] = append(typedSec[j], ts)
			p.BaselineAllocsBatch = max(p.BaselineAllocsBatch, ba)
			p.TypedAllocsBatch = max(p.TypedAllocsBatch, ta)
			if w == 1 {
				base1 = bs
			}
			bestTyped = max(bestTyped, ts)
		}
		if base1 > 0 {
			ratios = append(ratios, bestTyped/base1)
		}
	}
	for j, w := range workers {
		p := &row.Points[j]
		p.Workers = w
		p.BaselineSamplesSec, p.TypedSamplesSec = median(baseSec[j]), median(typedSec[j])
		p.Speedup = p.TypedSamplesSec / p.BaselineSamplesSec
		row.BestSpeedup = max(row.BestSpeedup, p.Speedup)
	}
	if len(ratios) > 0 {
		row.ScalingMin, row.ScalingMax = slices.Min(ratios), slices.Max(ratios)
		row.ScalingImprovement = median(ratios)
	}
}

// RunDataplaneBench measures both pipelines. Every run doubles as a
// differential test: before timing, the typed path is replayed against the
// baseline replica sample-for-sample and any divergence in results, misses,
// or register state fails the run.
func RunDataplaneBench(cfg DataplaneBenchConfig) ([]DataplaneBenchRow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zs := newZipf(rng.Float64, cfg.Width, cfg.ZipfS)
	xs := make([]uint64, cfg.Samples)
	ys := make([]uint64, cfg.Samples)
	zs.Fill(xs)
	zs.Fill(ys)
	batches := batchCount(cfg.Samples, cfg.Batch)

	// Unary pipeline: shape the tables on the measurement stream, then
	// verify and sweep.
	sysCfg := core.DefaultConfig(cfg.Width)
	uni, err := core.NewUnary(sysCfg, arith.OpSquare)
	if err != nil {
		return nil, err
	}
	for r := 0; r < cfg.WarmRounds; r++ {
		uni.ObserveAll(xs)
		if _, err := uni.Sync(); err != nil {
			return nil, err
		}
	}
	uniBase := newBaselineUnary(uni.Controller().Monitor(), uni.Engine().Table())
	if err := verifyUnary(uni, &uniBase, xs, cfg.Batch); err != nil {
		return nil, err
	}
	uniRow := DataplaneBenchRow{Path: "unary", Samples: cfg.Samples, Batch: cfg.Batch, ZipfS: cfg.ZipfS}
	sweepWorkers(&uniRow, cfg.Workers, batches,
		func(w int) func() {
			return func() {
				netsim.ReplayBatched(w, cfg.Batch, xs, func(_ int, batch []uint64) {
					uniBase.observeEval(batch)
				})
			}
		},
		func(w int) func() {
			scs := make([]arith.Scratch, w)
			dsts := make([][]uint64, w)
			return func() {
				netsim.ReplayBatched(w, cfg.Batch, xs, func(worker int, batch []uint64) {
					dsts[worker], _ = uni.ObserveEvalAll(dsts[worker], batch, &scs[worker])
				})
			}
		})

	// Binary pipeline.
	bin, err := core.NewBinary(core.DefaultConfig(cfg.Width), arith.OpMul)
	if err != nil {
		return nil, err
	}
	for r := 0; r < cfg.WarmRounds; r++ {
		bin.ObserveAll(xs, ys)
		if _, err := bin.Sync(); err != nil {
			return nil, err
		}
	}
	binBase := baselineBinary{
		monX:  newBaselineUnary(bin.ControllerX().Monitor(), nil),
		monY:  newBaselineUnary(bin.ControllerY().Monitor(), nil),
		store: bin.Engine().Table(),
	}
	if err := verifyBinary(bin, &binBase, xs, ys, cfg.Batch); err != nil {
		return nil, err
	}
	binRow := DataplaneBenchRow{Path: "binary", Samples: cfg.Samples, Batch: cfg.Batch, ZipfS: cfg.ZipfS}
	sweepWorkers(&binRow, cfg.Workers, batches,
		func(w int) func() {
			return func() {
				netsim.Replay(w, cfg.Samples, func(lo, hi int) {
					for l := lo; l < hi; l += cfg.Batch {
						h := min(l+cfg.Batch, hi)
						binBase.observeEval(xs[l:h], ys[l:h])
					}
				})
			}
		},
		func(w int) func() {
			return func() {
				netsim.Replay(w, cfg.Samples, func(lo, hi int) {
					var sc arith.Scratch // one scratch per shard, reused across its batches
					var dst []uint64
					for l := lo; l < hi; l += cfg.Batch {
						h := min(l+cfg.Batch, hi)
						dst, _ = bin.ObserveEvalAll(dst, xs[l:h], ys[l:h], &sc)
					}
				})
			}
		})
	return []DataplaneBenchRow{uniRow, binRow}, nil
}

// RenderDataplaneBench formats the rows.
func RenderDataplaneBench(rows []DataplaneBenchRow) string {
	t := stats.NewTable("Data-plane hot path: typed zero-allocation vs pre-change baseline (samples/sec)",
		"path", "workers", "baseline", "typed", "speedup", "allocs/batch (base→typed)")
	for _, r := range rows {
		for _, p := range r.Points {
			t.AddF(r.Path, p.Workers,
				fmt.Sprintf("%.2fM", p.BaselineSamplesSec/1e6),
				fmt.Sprintf("%.2fM", p.TypedSamplesSec/1e6),
				fmt.Sprintf("%.1fx", p.Speedup),
				fmt.Sprintf("%.1f→%.1f", p.BaselineAllocsBatch, p.TypedAllocsBatch))
		}
	}
	out := t.String()
	for _, r := range rows {
		out += fmt.Sprintf("%s scaling over the 1-worker baseline: %.2fx (trials %.2f–%.2fx, median of %d)\n",
			r.Path, r.ScalingImprovement, r.ScalingMin, r.ScalingMax, dataplaneTrials)
	}
	return out
}
