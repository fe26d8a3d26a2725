package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/serve"
	"github.com/ada-repro/ada/internal/tenant"
)

// epoch is the injected clock's origin; the clock advances one tick period
// per tick, so pacing never depends on host speed.
var epoch = time.Unix(1_700_000_000, 0)

// system is one cold-started deployment: the registry, its tenants and the
// server in front of them.
type system struct {
	w       *workload
	reg     *core.Registry
	srv     *serve.Server
	tenants []*core.Tenant
	names   []string
	now     time.Time

	// Traced runs evaluate on the producer goroutine with their own
	// per-tenant scratch and per-batch result buffers.
	sc  []arith.Scratch
	dst [][]uint64
}

// newSystem builds the registry, mounts every tenant, starts a one-shard
// server and attaches the tenants. A non-nil rec wraps the registry in the
// tracing cluster.
func newSystem(w *workload, rec *recorder) (*system, error) {
	reg, err := core.NewRegistry(core.SharedConfig{
		Name:         "perfbench." + w.Name,
		TotalEntries: len(w.Tenants) * w.CalcEntries,
		Arbiter:      tenant.ArbiterConfig{Every: w.ArbiterEvery},
	})
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	s := &system{w: w, reg: reg, now: epoch}
	for _, ts := range w.Tenants {
		cfg := core.DefaultConfig(w.Width)
		cfg.MonitorEntries = w.MonitorEntries
		cfg.CalcEntries = w.CalcEntries
		cfg.LookupCacheEntries = w.CacheEntries
		cfg.AuditEvery = w.AuditEvery
		cfg.EnableJournal = w.Journal
		var tn *core.Tenant
		if ts.Binary != 0 {
			tn, err = reg.MountBinary(ts.Name, cfg, ts.Binary)
		} else {
			tn, err = reg.MountUnary(ts.Name, cfg, ts.Unary)
		}
		if err != nil {
			return nil, fmt.Errorf("mount %s: %w", ts.Name, err)
		}
		s.tenants = append(s.tenants, tn)
		s.names = append(s.names, ts.Name)
	}
	var cluster serve.Cluster = reg
	if rec != nil {
		cluster = &tracedCluster{reg: reg, rec: rec}
	}
	s.srv, err = serve.NewServer(cluster, serve.Config{
		Shards:            1,
		QueueDepth:        w.QueueDepth,
		Drift:             serve.DriftConfig{Trigger: w.DriftTrigger},
		MinRoundSpacing:   w.Spacing,
		MaxRoundStaleness: w.Staleness,
		ErrorSLO:          w.ErrorSLO,
		WriteBudget:       w.WriteBudget,
		WriteBudgetWindow: w.BudgetWindow,
		TickEvery:         w.TickPeriod,
		Now:               func() time.Time { return s.now },
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for _, name := range s.names {
		if err := s.srv.Attach(name); err != nil {
			s.srv.Close()
			return nil, fmt.Errorf("attach %s: %w", name, err)
		}
	}
	s.sc = make([]arith.Scratch, len(s.tenants))
	s.dst = make([][]uint64, len(w.Tenants)*w.BatchesPerTenant)
	return s, nil
}

func (s *system) close() { s.srv.Close() }

// monitors returns every tenant's monitoring units (two for a binary
// tenant).
func (s *system) monitors() []*monitor.Monitor {
	var out []*monitor.Monitor
	for _, tn := range s.tenants {
		if b := tn.Binary(); b != nil {
			out = append(out, b.ControllerX().Monitor(), b.ControllerY().Monitor())
		} else {
			out = append(out, tn.Unary().Controller().Monitor())
		}
	}
	return out
}

// journalLen sums every controller's write-ahead journal length.
func (s *system) journalLen() int {
	var n int
	add := func(c *controlplane.Controller) {
		if j := c.Journal(); j != nil {
			n += j.Len()
		}
	}
	for _, tn := range s.tenants {
		if b := tn.Binary(); b != nil {
			add(b.ControllerX())
			add(b.ControllerY())
		} else {
			add(tn.Unary().Controller())
		}
	}
	return n
}

// counters is the snapshot of cumulative program counters a pass diffs
// across its measured ticks.
type counters struct {
	physRowWrites                    uint64
	cacheHits, cacheMisses, cacheInv float64
	serveMisses                      float64
	saturations                      uint64
	journal                          int
}

func (s *system) counters() counters {
	st := s.reg.Table().Stats()
	c := counters{
		physRowWrites: st.Inserts + st.Deletes + st.Updates,
		journal:       s.journalLen(),
	}
	for _, m := range s.monitors() {
		c.saturations += m.Stats().Saturations
	}
	for key, v := range s.srv.Metrics().Snapshot() {
		switch {
		case strings.HasPrefix(key, "ada_lookup_cache_hits_total{"):
			c.cacheHits += v
		case strings.HasPrefix(key, "ada_lookup_cache_misses_total{"):
			c.cacheMisses += v
		case strings.HasPrefix(key, "ada_lookup_cache_invalidations_total{"):
			c.cacheInv += v
		case strings.HasPrefix(key, "ada_serve_misses_total{"):
			c.serveMisses += v
		}
	}
	return c
}

// tally accumulates one pass's measured ticks (tick 0, the cold start's
// first round, is excluded).
type tally struct {
	ticks    int // measured ticks
	lastTick int // index of the last measured tick

	// Data plane.
	offered, operands, shed uint64
	windowNs                int64  // wall time
	windowCPU               int64  // process CPU time
	windowLookups           uint64 // physical index lookups inside ingest windows
	// blockOps and blockCPU split operands and window CPU time into blocks
	// of BlockTicks measured ticks.
	blockOps    []uint64
	blockCPU    []int64
	evalMisses  int
	evalAllocs  uint64
	evalBatches int

	// Control plane.
	roundCPUMs   []float64 // process CPU time of the Ticks that ran a round
	tenantRounds int
	causes       map[string]int
	suppressed   map[string]int
	tcamWrites   int
	reads        int
	regWrites    int
	rebalances   int
	computed     int
	reused       int
	expansions   int
	audits       int
	mismatches   int
	degraded     int
	modelDelay   time.Duration
	budgetMoved  int
	binsSum      int
	binsN        int
	shiftTicks   []int
	productive   map[int]bool

	// Output checks.
	relErrs          []float64 // from the first FixedTicks measured ticks
	oracleChecks     int
	oracleMismatches int
	lookupMisses     int
	callErrors       int

	heap   uint64 // live heap after FixedTicks measured ticks
	digest hash.Hash64
	start  counters
	end    counters
}

func newTally() *tally {
	return &tally{
		causes:     make(map[string]int),
		suppressed: make(map[string]int),
		productive: make(map[int]bool),
		digest:     fnv.New64a(),
	}
}

// pass drives one system through the closed loop.
type pass struct {
	w      *workload
	in     *inputs
	sys    *system
	rec    *recorder
	ctx    context.Context
	tl     *tally
	budget []int
	win    []batch // the current tick's window
	// oracle resolves against the table contents at oracleVer
	// (Table.Version), rebuilt only when a commit changed them.
	oracle    *oracle
	oracleVer uint64
	next      int           // next tick index
	wall      time.Duration // measured-loop wall time
}

// coldStart builds a system and runs tick 0: the first window and the
// first round of every tenant. The process CPU time it takes is one setup_s
// sample.
func coldStart(ctx context.Context, w *workload, in *inputs, rec *recorder) (*pass, time.Duration, error) {
	c0 := cpuTime()
	sys, err := newSystem(w, rec)
	if err != nil {
		return nil, 0, err
	}
	p := &pass{w: w, in: in, sys: sys, rec: rec, ctx: ctx}
	p.reset()
	rep, err := p.tick(0)
	if err != nil {
		sys.close()
		return nil, 0, err
	}
	if len(rep.Rounds) != len(sys.tenants) {
		sys.close()
		return nil, 0, fmt.Errorf("cold start: %d of %d tenants ran their first round",
			len(rep.Rounds), len(sys.tenants))
	}
	took := cpuTime() - c0
	p.next = 1
	p.reset()
	return p, took, nil
}

// start is a cold start followed by the warm-up: a system ready to measure.
func start(ctx context.Context, w *workload, in *inputs, rec *recorder) (*pass, error) {
	p, _, err := coldStart(ctx, w, in, rec)
	if err != nil {
		return nil, err
	}
	if err := p.warmUp(); err != nil {
		p.sys.close()
		return nil, err
	}
	return p, nil
}

// warmUp runs the workload's warm-up ticks untimed, so measurement starts
// once the first rounds' transient has passed.
func (p *pass) warmUp() error {
	for ; p.next <= p.w.WarmupTicks; p.next++ {
		if _, err := p.tick(p.next); err != nil {
			return fmt.Errorf("warm-up tick %d: %w", p.next, err)
		}
	}
	p.reset()
	return nil
}

// reset starts a fresh tally from the system's current counters.
func (p *pass) reset() {
	p.tl = newTally()
	p.tl.start = p.sys.counters()
	p.budget = p.budget[:0]
	for _, tn := range p.sys.tenants {
		p.budget = append(p.budget, tn.Budget())
	}
}

// run executes measured ticks while more, given the measured ticks so far,
// reports true, then snapshots the end counters.
func (p *pass) run(more func(done int) bool) error {
	start := time.Now()
	defer func() {
		p.wall = time.Since(start)
		p.tl.end = p.sys.counters()
	}()
	for ; more(p.tl.ticks); p.next++ {
		if _, err := p.tick(p.next); err != nil {
			p.tl.callErrors++
			return fmt.Errorf("tick %d: %w", p.next, err)
		}
		p.tl.ticks++
		p.tl.lastTick = p.next
		if p.tl.ticks == p.w.FixedTicks {
			p.tl.heap = liveHeap()
		}
	}
	return nil
}

// tick runs one closed-loop step: ingest the window and wait for it, check
// and score the sampled operands, advance the clock, run the pacer.
func (p *pass) tick(t int) (serve.TickReport, error) {
	p.win = p.in.shift(p.win, t)
	win := p.win
	root := -1
	if p.rec != nil {
		p.rec.tick = t
		root = p.rec.begin(spanTick, -1, 0)
	}
	lookups := p.sys.reg.Table().Stats().Lookups
	if p.rec != nil {
		p.tracedWindow(win, root)
	} else if err := p.serveWindow(win); err != nil {
		return serve.TickReport{}, err
	}
	p.tl.windowLookups += p.sys.reg.Table().Stats().Lookups - lookups
	p.sample(win, t)

	p.sys.now = p.sys.now.Add(p.w.TickPeriod)
	si := p.rec.begin(spanServe, root, 0)
	if p.rec != nil {
		p.rec.open = si
	}
	c0 := cpuTime()
	rep, err := p.sys.srv.Tick(p.ctx)
	took := cpuTime() - c0
	p.rec.end(si)
	if p.rec != nil {
		p.rec.open = -1
	}
	p.rec.end(root)
	if err != nil {
		return rep, err
	}
	p.account(t, rep, took)
	return rep, nil
}

// serveWindow is the measured data-plane path: offer every batch through
// the server, then wait until the shard worker has processed them all.
func (p *pass) serveWindow(win []batch) error {
	tl, srv := p.tl, p.sys.srv
	c0, t0 := cpuTime(), time.Now()
	for _, b := range win {
		name := p.sys.names[b.tenant]
		var ok bool
		var err error
		if b.ys != nil {
			ok, err = srv.IngestPairs(name, b.xs, b.ys)
		} else {
			ok, err = srv.Ingest(name, b.xs)
		}
		n := uint64(len(b.xs))
		tl.offered += n
		switch {
		case err != nil:
			tl.callErrors++
		case !ok:
			tl.shed += n
		default:
			tl.operands += n
		}
	}
	if err := srv.Drain(p.ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	tl.addWindow(tl.ticks/p.w.BlockTicks, int64(time.Since(t0)), int64(cpuTime()-c0))
	return nil
}

// tracedWindow makes the shard worker's two calls per batch on the
// producer goroutine, each inside its own span: every batch is observed
// first, then every batch is evaluated through a scratch armed exactly as
// ObserveEvalAll arms it, so the allocations counted between the two
// phases belong to the evaluation path alone.
func (p *pass) tracedWindow(win []batch, root int) {
	tl, rec, sys := p.tl, p.rec, p.sys
	var ops int
	for _, b := range win {
		ops += len(b.xs)
	}
	wi := rec.begin(spanWindow, root, ops)
	rec.reserve(2*len(win) + 4)
	for _, b := range win {
		tn := sys.tenants[b.tenant]
		if bs := tn.Binary(); bs != nil {
			s := rec.begin(spanObserve, wi, 2*len(b.xs))
			bs.ControllerX().Monitor().ObserveAll(b.xs)
			bs.ControllerY().Monitor().ObserveAll(b.ys)
			rec.end(s)
		} else {
			s := rec.begin(spanObserve, wi, len(b.xs))
			tn.Unary().Controller().Monitor().ObserveAll(b.xs)
			rec.end(s)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, b := range win {
		tn := sys.tenants[b.tenant]
		sc := &sys.sc[b.tenant]
		var misses int
		if bs := tn.Binary(); bs != nil {
			if p.w.CacheEntries > 0 {
				sc.EnableCache(bs.Engine().Store(), p.w.CacheEntries)
				sc.EnableDedup()
			}
			s := rec.begin(spanEval, wi, len(b.xs))
			sys.dst[i], misses = bs.Engine().EvalBatchInto(sys.dst[i], b.xs, b.ys, sc)
			rec.end(s)
		} else {
			us := tn.Unary()
			if p.w.CacheEntries > 0 {
				sc.EnableCache(us.Engine().Store(), p.w.CacheEntries)
				sc.EnableDedup()
			}
			s := rec.begin(spanEval, wi, len(b.xs))
			sys.dst[i], misses = us.Engine().EvalBatchInto(sys.dst[i], b.xs, sc)
			rec.end(s)
		}
		tl.evalMisses += misses
	}
	runtime.ReadMemStats(&ms1)
	rec.end(wi)
	tl.evalAllocs += ms1.Mallocs - ms0.Mallocs
	tl.evalBatches += len(win)
	tl.offered += uint64(ops)
	tl.operands += uint64(ops)
}

// sample checks SamplesPerTenant operands of each tenant against the
// brute-force oracle and, in the first FixedTicks measured ticks, scores their
// relative error. Results come from
// Engine().Eval, which bypasses the monitor, so sampling changes no
// register; a traced pass also checks the batch results the cached,
// deduplicated evaluation path returned for the same operands.
func (p *pass) sample(win []batch, t int) {
	tl, sys, w := p.tl, p.sys, p.w
	if v := sys.reg.Table().Version(); p.oracle == nil || v != p.oracleVer {
		p.oracle, p.oracleVer = newOracle(sys.reg.Table().Entries()), v
	}
	o := p.oracle
	stride := w.BatchSize / w.SamplesPerTenant
	for ti, tn := range sys.tenants {
		bi := (t%w.BatchesPerTenant)*len(sys.tenants) + ti
		b := win[bi]
		id := tn.Slice().ID()
		for k := 0; k < w.SamplesPerTenant; k++ {
			j := (k*stride + t) % w.BatchSize
			var got, want, exact uint64
			var err error
			var ok bool
			if bs := tn.Binary(); bs != nil {
				x, y := b.xs[j], b.ys[j]
				got, err = bs.Engine().Eval(x, y)
				want, ok = o.resolve(id, x, y)
				exact = bs.Op().Exact(x, y)
			} else {
				x := b.xs[j]
				got, err = tn.Unary().Engine().Eval(x)
				want, ok = o.resolve(id, x)
				exact = tn.Unary().Op().Exact(x)
			}
			tl.oracleChecks++
			if err != nil {
				if !errors.Is(err, arith.ErrMiss) {
					tl.callErrors++
				}
				tl.lookupMisses++
				continue
			}
			if !ok || got != want {
				tl.oracleMismatches++
			}
			if p.rec != nil && (len(sys.dst[bi]) <= j || sys.dst[bi][j] != want) {
				tl.oracleMismatches++
			}
			if tl.ticks < w.FixedTicks {
				tl.relErrs = append(tl.relErrs, relErr(got, exact))
			}
		}
	}
}

// relErr is the repository's relative-error convention:
// |approx − exact| / max(exact, 1).
func relErr(approx, exact uint64) float64 {
	den := float64(exact)
	if den < 1 {
		den = 1
	}
	if approx > exact {
		return float64(approx-exact) / den
	}
	return float64(exact-approx) / den
}

// account folds one Tick's report into the tally and the determinism
// digest (tick, tenant, cause, writes and entry split, in name order).
func (p *pass) account(t int, rep serve.TickReport, cpu time.Duration) {
	tl := p.tl
	if len(rep.Rounds) > 0 {
		tl.roundCPUMs = append(tl.roundCPUMs, float64(cpu)/1e6)
	}
	if p.w.phaseShift(t) {
		tl.shiftTicks = append(tl.shiftTicks, t)
	}
	names := make([]string, 0, len(rep.Rounds))
	for name := range rep.Rounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cause := rep.Rounds[name]
		r := rep.Reports[name]
		tl.tenantRounds++
		tl.causes[cause]++
		tl.tcamWrites += r.TCAMWrites
		tl.reads += r.Reads
		tl.regWrites += r.Writes - r.TCAMWrites
		tl.rebalances += r.Rebalances
		tl.computed += r.Computed
		tl.reused += r.Reused
		tl.modelDelay += r.Delay
		if r.Expanded {
			tl.expansions++
		}
		if r.AuditRan {
			tl.audits++
			tl.mismatches += r.Audit.Mismatched()
		}
		if r.Degraded {
			tl.degraded++
		}
		if r.Computed > 0 && r.TCAMWrites > 0 {
			tl.productive[t] = true
		}
		fmt.Fprintf(tl.digest, "%d %s %s %d %d %d %v\n", t, name, cause,
			r.TCAMWrites, r.Computed, r.Reused, r.Degraded)
	}
	supp := make([]string, 0, len(rep.Suppressed))
	for name, reason := range rep.Suppressed {
		supp = append(supp, name+" "+reason)
		tl.suppressed[reason]++
	}
	sort.Strings(supp)
	for _, s := range supp {
		fmt.Fprintf(tl.digest, "%d suppressed %s\n", t, s)
	}
	for i, tn := range p.sys.tenants {
		b := tn.Budget()
		if d := b - p.budget[i]; d < 0 {
			tl.budgetMoved -= d
		} else {
			tl.budgetMoved += d
		}
		p.budget[i] = b
	}
	for _, m := range p.sys.monitors() {
		tl.binsSum += m.NumBins()
		tl.binsN++
	}
}

// addWindow books one served window's operands (those accepted since the
// last call), wall time and CPU time, the latter into block b.
func (tl *tally) addWindow(b int, ns, cpu int64) {
	for len(tl.blockCPU) <= b {
		tl.blockOps = append(tl.blockOps, 0)
		tl.blockCPU = append(tl.blockCPU, 0)
	}
	var booked uint64
	for _, n := range tl.blockOps {
		booked += n
	}
	tl.blockOps[b] += tl.operands - booked
	tl.blockCPU[b] += cpu
	tl.windowNs += ns
	tl.windowCPU += cpu
}

// lookupRate is the median over complete blocks of operands per second of
// window CPU time (the whole run's rate when no block is complete). Blocks
// span whole pacing periods, so each holds the same mix of windows that
// follow a round; the median keeps a burst of interference out of the
// figure.
func (tl *tally) lookupRate(blockTicks int) float64 {
	full := tl.ticks / blockTicks
	if full == 0 {
		return float64(tl.operands) / (float64(tl.windowCPU) / 1e9)
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(tl.blockOps[i]) / (float64(tl.blockCPU[i]) / 1e9)
	}
	return quantile(sortedCopy(rates), 0.5)
}

// phaseGuard returns the first completed phase whose shift was followed by
// no round that computed entries and wrote the TCAM (-1: none).
func (tl *tally) phaseGuard(phaseLen int) int {
	for _, s := range tl.shiftTicks {
		if s+phaseLen > tl.lastTick {
			break // the phase did not finish inside the run
		}
		ok := false
		for t := s; t < s+phaseLen; t++ {
			if tl.productive[t] {
				ok = true
				break
			}
		}
		if !ok {
			return s
		}
	}
	return -1
}

// failed counts the failed operations: shed operands, lookup misses,
// oracle mismatches, degraded rounds and call errors.
func (tl *tally) failed() uint64 {
	misses := uint64(tl.end.serveMisses-tl.start.serveMisses) + uint64(tl.evalMisses)
	return tl.shed + misses + uint64(tl.lookupMisses) + uint64(tl.oracleMismatches) +
		uint64(tl.degraded) + uint64(tl.callErrors)
}

// attempted counts the operations tried: operands offered, tenant rounds
// run and oracle checks made.
func (tl *tally) attempted() uint64 {
	return tl.offered + uint64(tl.tenantRounds) + uint64(tl.oracleChecks)
}

func (tl *tally) cacheHitFrac() float64 {
	h := tl.end.cacheHits - tl.start.cacheHits
	m := tl.end.cacheMisses - tl.start.cacheMisses
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

func (tl *tally) perRound(v float64) float64 {
	if tl.tenantRounds == 0 {
		return 0
	}
	return v / float64(tl.tenantRounds)
}

// cpuTime is the CPU time every thread of the process has used (user plus
// system). Unlike wall time it leaves out time the hypervisor gives the
// host's virtual CPUs to other guests, which on a shared two-CPU VM varies
// by tens of percent from one run to the next.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
