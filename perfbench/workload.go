package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ada-repro/ada/internal/arith"
)

// tenantSpec is one mounted system: a unary operation, or a binary one when
// binary is non-zero.
type tenantSpec struct {
	Name   string         `json:"name"`
	Unary  arith.UnaryOp  `json:"unary,omitempty"`
	Binary arith.BinaryOp `json:"binary,omitempty"`
}

// workload is one named traffic mix plus the system configuration it runs
// against. Every field is recorded in the run's environment block.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Width          int          `json:"width"`
	CalcEntries    int          `json:"calc_entries"`
	MonitorEntries int          `json:"monitor_entries"`
	CacheEntries   int          `json:"lookup_cache_entries"`
	Tenants        []tenantSpec `json:"tenants"`

	// BatchSize operands per batch, BatchesPerTenant batches per tenant in
	// every tick's ingest window.
	BatchSize        int `json:"batch_size"`
	BatchesPerTenant int `json:"batches_per_tenant"`
	QueueDepth       int `json:"queue_depth"`

	// ZipfS > 1 draws Zipf ranks in [0, ZipfSpan·domain) offset from the
	// phase peak; 0 draws uniformly over the whole domain.
	ZipfS    float64 `json:"zipf_s"`
	ZipfSpan float64 `json:"zipf_span"`
	// Phase k's peak sits at frac(Peak + k·PeakStep) of the highest peak
	// that keeps every operand of every tenant inside the domain. The
	// stream moves every PhaseLen ticks (0: stationary). An irrational step
	// never revisits a peak, so every phase reaches operands whose
	// Algorithm 3 entries are not memoized yet.
	Peak     float64 `json:"peak"`
	PeakStep float64 `json:"peak_step"`
	PhaseLen int     `json:"phase_len"`
	// PoolBatches pre-generated batches per tenant feed every window.
	PoolBatches int `json:"pool_batches"`
	// BlockTicks measured ticks, a whole number of pacing periods, form one
	// block of lookups_per_cpu_s.
	BlockTicks int `json:"block_ticks"`

	TickPeriod   time.Duration `json:"tick_period_ns"`
	Spacing      time.Duration `json:"min_round_spacing_ns"`
	Staleness    time.Duration `json:"staleness_ns"`
	DriftTrigger float64       `json:"drift_trigger"`
	ErrorSLO     float64       `json:"error_slo"`
	WriteBudget  int           `json:"write_budget"`
	BudgetWindow time.Duration `json:"budget_window_ns"`
	AuditEvery   int           `json:"audit_every"`
	Journal      bool          `json:"journal"`
	ArbiterEvery int           `json:"arbiter_every"`

	// SamplesPerTenant operands per tenant per tick are checked against the
	// oracle and scored for relative error.
	SamplesPerTenant int `json:"samples_per_tenant"`
	// FixedTicks is the number of measured ticks the error metrics cover and
	// after which heap_mb is read: a fixed prefix, below the ticks any run
	// reaches, so accuracy and heap (the journal and the Algorithm 3 memo
	// grow with every round) depend on the seed alone and not on how many
	// ticks a fast host gets through.
	FixedTicks int `json:"fixed_ticks"`
	// SetupReps cold starts are timed per untraced run; setup_s is their
	// median.
	SetupReps int `json:"setup_reps"`
	// WarmupTicks run untimed after the cold start, before measurement.
	WarmupTicks int `json:"warmup_ticks"`
}

// cacheTables is the shared shape of skew-hot and uniform-cold: two unary
// tenants on one table, each with 4096 entries and adaserve's default
// 4096-slot lookup cache.
func cacheTables(name, why string, zipfS float64) *workload {
	return &workload{
		Name:             name,
		Why:              why,
		Width:            16,
		CalcEntries:      4096,
		MonitorEntries:   12,
		CacheEntries:     4096,
		Tenants:          []tenantSpec{{Name: "sq", Unary: arith.OpSquare}, {Name: "lg", Unary: arith.OpLog2}},
		BatchSize:        4096,
		BatchesPerTenant: 8,
		QueueDepth:       64,
		ZipfS:            zipfS,
		ZipfSpan:         0.8,
		Peak:             0.7,
		PoolBatches:      48,
		BlockTicks:       6,
		TickPeriod:       100 * time.Millisecond,
		Spacing:          100 * time.Millisecond,
		Staleness:        300 * time.Millisecond,
		DriftTrigger:     0.15,
		SamplesPerTenant: 64,
		FixedTicks:       300,
		SetupReps:        7,
		WarmupTicks:      20,
	}
}

// workloads returns every workload by name, freshly built.
func workloads() map[string]*workload {
	return map[string]*workload{
		"skew-hot": cacheTables("skew-hot",
			"Zipf-skewed stationary operands: the data plane does the work and the lookup cache and dedup do real work", 1.1),
		"uniform-cold": cacheTables("uniform-cold",
			"uniform operands over the whole domain: the cache is bypassed and nearly every operand walks the physical index", 0),
		"drift-churn": {
			Name:           "drift-churn",
			Why:            "the operand peak moves every phase: control rounds, TCAM writes and cache invalidation dominate the host work",
			Width:          16,
			CalcEntries:    1024,
			MonitorEntries: 12,
			CacheEntries:   4096,
			Tenants: []tenantSpec{
				{Name: "sq", Unary: arith.OpSquare},
				{Name: "lg", Unary: arith.OpLog2},
				{Name: "rt", Unary: arith.OpSqrt},
				{Name: "rc", Unary: arith.OpRecip},
				{Name: "m1", Binary: arith.OpMul},
				{Name: "m2", Binary: arith.OpMul},
			},
			BatchSize:        1024,
			BatchesPerTenant: 8,
			QueueDepth:       64,
			ZipfS:            1.1,
			ZipfSpan:         0.125,
			Peak:             0.1,
			PeakStep:         0.618034,
			PhaseLen:         20,
			PoolBatches:      48,
			BlockTicks:       20,
			TickPeriod:       100 * time.Millisecond,
			Spacing:          500 * time.Millisecond,
			Staleness:        500 * time.Millisecond,
			DriftTrigger:     0.3,
			ErrorSLO:         0.2,
			WriteBudget:      100000,
			BudgetWindow:     2 * time.Second,
			AuditEvery:       8,
			Journal:          true,
			ArbiterEvery:     10,
			SamplesPerTenant: 16,
			FixedTicks:       400,
			SetupReps:        7,
			WarmupTicks:      60,
		},
	}
}

// lookupWorkload returns the named workload or an error listing none.
func lookupWorkload(name string) (*workload, error) {
	w, ok := workloads()[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want skew-hot, uniform-cold or drift-churn)", name)
	}
	return w, nil
}

// batch is one ingest batch for one tenant (ys nil for unary tenants).
type batch struct {
	tenant int
	xs, ys []uint64
}

// inputs holds every pre-generated batch: per tenant, a pool of Zipf-rank
// batches (or, for a uniform workload, of operands). Each tick's window
// picks its batches from the pools by a hash of seed, tick and slot, so no
// two pacing periods aggregate the same histogram — a repeating window
// cycle would let converged rounds see identical registers, a shortcut real
// traffic never offers.
type inputs struct {
	w       *workload
	seed    uint64
	pool    [][]batch // pool[tenant][k]
	domain  float64
	maxPeak float64
}

// generate builds every pool from the seed.
func generate(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	domain := float64(uint64(1) << uint(w.Width))
	in := &inputs{w: w, seed: uint64(seed), pool: make([][]batch, len(w.Tenants)), domain: domain,
		maxPeak: domain*(1-w.ZipfSpan) - float64(len(w.Tenants))*domain/64}
	mask := uint64(1)<<uint(w.Width) - 1
	var zipf *rand.Zipf
	if w.ZipfS > 1 {
		zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(w.ZipfSpan*domain)-1)
	}
	draw := func() []uint64 {
		v := make([]uint64, w.BatchSize)
		for i := range v {
			if zipf != nil {
				v[i] = zipf.Uint64()
			} else {
				v[i] = rng.Uint64() & mask
			}
		}
		return v
	}
	for ti, ts := range w.Tenants {
		for k := 0; k < w.PoolBatches; k++ {
			bt := batch{tenant: ti, xs: draw()}
			if ts.Binary != 0 {
				bt.ys = draw()
			}
			in.pool[ti] = append(in.pool[ti], bt)
		}
	}
	return in
}

// pick chooses the pool batch for one slot of tick t's window (splitmix64
// over seed, tick and slot).
func (in *inputs) pick(t, slot int) int {
	z := in.seed + uint64(t)*0x9e3779b97f4a7c15 + uint64(slot)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(in.w.PoolBatches))
}

// phaseShift reports whether tick t moves the operand peak.
func (w *workload) phaseShift(t int) bool {
	return w.PhaseLen > 0 && t > 0 && t%w.PhaseLen == 0
}

// peak is tenant ti's peak in phase k: the phase peak plus a per-tenant
// shift, so the tenants' hot sets differ.
func (in *inputs) peak(k, ti int) uint64 {
	_, f := math.Modf(in.w.Peak + float64(k)*in.w.PeakStep)
	return uint64(f*in.maxPeak) + uint64(ti)*uint64(in.domain/64)
}

// shift writes tick t's window into dst, reusing its buffers: the window's
// batches interleaved round-robin across tenants in the order the producer
// offers them, each shifted to its tenant's peak for the tick's phase (a
// binary tenant's second operand follows the next phase's peak). A uniform
// workload is copied unchanged.
func (in *inputs) shift(dst []batch, t int) []batch {
	n := len(in.w.Tenants)
	if len(dst) != n*in.w.BatchesPerTenant {
		dst = make([]batch, n*in.w.BatchesPerTenant)
	}
	k := 0
	if in.w.PhaseLen > 0 {
		k = t / in.w.PhaseLen
	}
	for i := range dst {
		ti := i % n
		b := in.pool[ti][in.pick(t, i)]
		d := &dst[i]
		d.tenant = ti
		var px, py uint64
		if in.w.ZipfS > 1 {
			px, py = in.peak(k, ti), in.peak(k+1, ti)
		}
		d.xs = offset(d.xs, b.xs, px)
		if b.ys != nil {
			d.ys = offset(d.ys, b.ys, py)
		}
	}
	return dst
}

func offset(dst, src []uint64, by uint64) []uint64 {
	if cap(dst) < len(src) {
		dst = make([]uint64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v + by
	}
	return dst
}
