// Package controlplane implements ADA's controller (§III-B): each control
// round it reads the data-plane hit registers, reshapes the binning trie
// (Algorithm 2), decides whether to grow the monitoring TCAM (trie
// expansion, th_expansion), regenerates the calculation TCAM with Algorithm
// 3, and pushes both tables back to the switch.
//
// Every register read, register reset, and TCAM write is counted, and a
// calibrated cost model converts operation counts into the convergence
// delay the paper measures in Fig 9 (~3.15 ms for 128 entries). The paper's
// controller is a gRPC client against the switch driver; here that wire is
// the Driver interface, whose in-process implementation (DirectDriver) talks
// to the tcam/monitor model and whose fault-injecting implementation
// (internal/faults) makes it fail the way real drivers do.
//
// Rounds are transactional: the trie is reshaped on a shadow clone and the
// calculation table is committed atomically through the driver, so a failed
// round leaves the previous generation fully installed and the controller
// state untouched — a data-plane lookup never observes a partially
// populated table. Driver errors are retried with exponential backoff
// (charged into the round's Delay), and after too many consecutive failed
// rounds the controller degrades to serving the last good population,
// probing the driver until it recovers.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/trie"
)

var (
	// ErrConfig reports an invalid controller configuration.
	ErrConfig = errors.New("controlplane: invalid configuration")
	// ErrDeadline reports a round that exceeded its modelled delay budget.
	ErrDeadline = errors.New("controlplane: round deadline exceeded")
)

// CostModel converts control-round operation counts into wall-clock delay.
// The defaults are calibrated so a 128-entry calculation table converges in
// about 3.15 ms, matching the paper's Fig 9 measurement of their gRPC
// driver.
type CostModel struct {
	// Base is the fixed per-round overhead (RPC setup, batching).
	Base time.Duration
	// PerRegisterRead is charged per hit-register read.
	PerRegisterRead time.Duration
	// PerRegisterWrite is charged per hit-register reset.
	PerRegisterWrite time.Duration
	// PerTCAMWrite is charged per TCAM entry install or invalidate.
	PerTCAMWrite time.Duration
	// PerEntryCompute is charged per calculation entry generated by
	// Algorithm 3.
	PerEntryCompute time.Duration
	// PerEntryReused is charged per calculation entry whose cached value an
	// incremental round reused instead of recomputing. Default 0: reused
	// entries are shadow-copy bookkeeping, not driver work, which is exactly
	// what makes the incremental round cheaper in the Fig 9 delay model.
	PerEntryReused time.Duration
	// PerRowRead is charged per calculation row read back during an audit.
	PerRowRead time.Duration
	// PerSRAMWrite is charged per SRAM row write when the calculation store
	// is tiered (populate spills and tier moves). SRAM programs orders of
	// magnitude cheaper than TCAM — the default is 500ns against 13µs —
	// which is the entire economics of the tiered store.
	PerSRAMWrite time.Duration
}

// DefaultCostModel returns the Fig 9 calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		Base:             100 * time.Microsecond,
		PerRegisterRead:  3 * time.Microsecond,
		PerRegisterWrite: 2 * time.Microsecond,
		PerTCAMWrite:     13 * time.Microsecond,
		PerEntryCompute:  2 * time.Microsecond,
		PerRowRead:       1 * time.Microsecond,
		PerSRAMWrite:     500 * time.Nanosecond,
	}
}

// RoundCost converts one round's operation counts into delay. computed and
// reused split the calculation entries into fresh Algorithm 3 evaluations
// and memoized reuses, each charged at its own rate.
func (c CostModel) RoundCost(regReads, regWrites, tcamWrites, computed, reused int) time.Duration {
	return c.Base +
		time.Duration(regReads)*c.PerRegisterRead +
		time.Duration(regWrites)*c.PerRegisterWrite +
		time.Duration(tcamWrites)*c.PerTCAMWrite +
		time.Duration(computed)*c.PerEntryCompute +
		time.Duration(reused)*c.PerEntryReused
}

// Target is the calculation table the controller repopulates each round.
// arith engines are adapted to this interface by the core package.
type Target interface {
	// Populate regenerates the calculation entries from the trie with the
	// given budget and installs them atomically, returning the number of
	// TCAM writes and the number of entries computed. On error the previous
	// population must remain fully installed.
	Populate(t *trie.Trie, budget int) (writes, computed int, err error)
}

// DeltaTarget is a Target that can repopulate incrementally: PopulateDelta
// reconciles only what changed since the previous successful populate,
// reporting how many entry results were freshly computed versus reused from
// its memo. Its end state must be identical to Populate's — incremental is a
// cost optimisation, never a different population — and on error the
// previous population must remain fully installed.
type DeltaTarget interface {
	Target
	PopulateDelta(t *trie.Trie, budget int) (writes, computed, reused int, err error)
}

// Config parameterises the controller with the paper's §IV constants as
// defaults.
type Config struct {
	// ThBalance is Algorithm 2's rebalance threshold; the paper uses 0.20.
	ThBalance float64
	// ThExpansion is the depth-growth threshold that triggers monitoring
	// TCAM expansion; the paper uses 2.
	ThExpansion int
	// MonitorBudget is the initial monitoring entry budget M.
	MonitorBudget int
	// MaxMonitorEntries caps expansion growth (0 = monitoring capacity).
	MaxMonitorEntries int
	// CalcBudget is the calculation table entry budget.
	CalcBudget int
	// MaxRebalances bounds Algorithm 2 iterations per round.
	MaxRebalances int
	// EWMADecay selects the exponential-decay ablation: instead of the
	// paper's read-then-reset register handling, each round halves the
	// trie's remembered hits and adds the fresh snapshot, giving the
	// distribution estimate a longer memory.
	EWMADecay bool
	// Cost is the delay model.
	Cost CostModel
	// Retry bounds per-op retries against a flaky driver; zero values take
	// DefaultRetryPolicy.
	Retry RetryPolicy
	// UnhealthyAfter is the number of consecutive degraded rounds before
	// the controller enters degraded mode (0 = default 3, negative =
	// never).
	UnhealthyAfter int
	// WrapDriver, when set, wraps the driver at construction — the hook
	// fault injectors use to interpose on the switch-driver boundary.
	WrapDriver func(Driver) Driver
	// AuditEvery enables the periodic read-back audit: every Nth committed
	// round — and after any retry-exhausted round — the controller compares
	// the hardware's calculation rows against its expected population and
	// commits an anti-entropy repair delta on divergence. 0 disables
	// auditing. Audits require a driver implementing Auditor; others audit
	// trivially clean.
	AuditEvery int
	// Journal, when set, write-ahead logs every round (intent before the
	// first driver write, commit after the shadow trie swap) so Recover can
	// rebuild the controller after a crash.
	Journal *Journal
	// CrashHook, when set, is consulted at each CrashPoint of a round;
	// returning true crashes the controller there (Round returns ErrCrashed
	// and the instance must be discarded). Fault injectors use it to model
	// controller restarts straddling the journal boundary.
	CrashHook func(CrashPoint) bool
}

// DefaultConfig returns the paper's §IV parameters for the given budgets.
func DefaultConfig(monitorBudget, calcBudget int) Config {
	return Config{
		ThBalance:     0.20,
		ThExpansion:   2,
		MonitorBudget: monitorBudget,
		CalcBudget:    calcBudget,
		MaxRebalances: 4,
		Cost:          DefaultCostModel(),
	}
}

// RoundReport describes one control round.
type RoundReport struct {
	// Reads is the register reads performed.
	Reads int
	// RegisterWrites is the register resets performed.
	RegisterWrites int
	// TCAMWrites is monitoring + calculation TCAM writes.
	TCAMWrites int
	// Computed is the number of calculation entries generated.
	Computed int
	// Reused is the number of calculation entries an incremental round
	// served from its memo instead of recomputing (0 on the full path).
	Reused int
	// Rebalances is the number of Algorithm 2 steps that fired.
	Rebalances int
	// Expanded reports whether the monitoring TCAM grew this round.
	Expanded bool
	// MonitorEntries is the bin count after the round.
	MonitorEntries int
	// Delay is the modelled convergence delay of the round, including retry
	// backoff and driver-injected latency.
	Delay time.Duration
	// TotalHits is the distribution mass observed this round.
	TotalHits uint64

	// Degraded reports that the round aborted on driver failure and the
	// system kept serving the last good population.
	Degraded bool
	// DegradedReason names the step that aborted a degraded round.
	DegradedReason DegradeReason
	// LastError carries the final driver error of a degraded round.
	LastError string
	// Retries counts driver-operation retries performed.
	Retries int
	// DriverErrors counts failed driver calls observed (retried or not).
	DriverErrors int
	// InjectedLatency is driver-reported extra latency folded into Delay.
	InjectedLatency time.Duration
	// ResetFailed reports that the post-commit register reset failed; the
	// next snapshot will carry this round's counts too.
	ResetFailed bool
	// Resynced reports that the round began by reinstalling the monitoring
	// bins after a detected driver/controller divergence.
	Resynced bool
	// AuditRan reports that a read-back audit ran this round.
	AuditRan bool
	// Audit carries the audit's classification and repair accounting when
	// AuditRan is set.
	Audit AuditReport
	// TierPlaced reports that the driver fronts a tiered calculation store
	// and a tier-placement pass ran after the commit.
	TierPlaced bool
	// TierPlaceFailed reports a placement pass that errored; non-fatal —
	// the committed population keeps serving and the next round re-ranks.
	TierPlaceFailed bool
	// TierPromotions and TierDemotions count rows moved SRAM→TCAM and
	// TCAM→SRAM by this round's placement pass. The TCAM writes those moves
	// cost are folded into TCAMWrites.
	TierPromotions int
	TierDemotions  int
	// SRAMWrites counts SRAM row writes this round (tiered populate spills
	// plus tier moves), charged at CostModel.PerSRAMWrite.
	SRAMWrites int
	// Health is the controller's driver-health state after the round.
	Health Health
}

// Totals aggregates across rounds for the Table II accounting.
type Totals struct {
	Rounds         int
	Reads          uint64
	RegisterWrites uint64
	TCAMWrites     uint64
	Rebalances     uint64
	Expansions     uint64
	// Computed and Reused split calculation entries into fresh evaluations
	// and memoized reuses across all rounds.
	Computed uint64
	Reused   uint64
	Delay    time.Duration
	// DegradedRounds counts rounds that aborted without committing.
	DegradedRounds int
	// Retries counts driver-operation retries across all rounds.
	Retries uint64
	// DriverErrors counts failed driver calls across all rounds.
	DriverErrors uint64
	// Audits counts read-back audits performed; AuditMismatches and
	// RepairWrites aggregate the divergent rows found and the anti-entropy
	// writes that fixed them.
	Audits          uint64
	AuditMismatches uint64
	RepairWrites    uint64
	// TierPromotions/TierDemotions/SRAMWrites aggregate tier-placement moves
	// and SRAM row writes across all rounds of a tiered calculation store.
	TierPromotions uint64
	TierDemotions  uint64
	SRAMWrites     uint64
}

// AvgReads returns mean register reads per round.
func (t Totals) AvgReads() float64 {
	if t.Rounds == 0 {
		return 0
	}
	return float64(t.Reads) / float64(t.Rounds)
}

// AvgWrites returns mean control-plane writes (registers + TCAM) per round.
func (t Totals) AvgWrites() float64 {
	if t.Rounds == 0 {
		return 0
	}
	return float64(t.RegisterWrites+t.TCAMWrites) / float64(t.Rounds)
}

// Controller drives one monitored variable's trie and calculation target
// through the switch-driver boundary.
type Controller struct {
	cfg Config
	tr  *trie.Trie
	drv Driver
	mon *monitor.Monitor // nil when the driver does not expose one

	depthAtLastExpansion int
	totals               Totals
	health               Health
	consecFailures       int

	// roundsSinceAudit schedules the periodic audit; auditPending forces
	// one after a retry-exhausted round regardless of cadence.
	roundsSinceAudit int
	auditPending     bool
	// crashed latches after Config.CrashHook fires: the instance models a
	// dead process and every further Round fails with ErrCrashed.
	crashed bool
}

// New creates a controller over the in-process direct driver, initialises
// the trie with Algorithm 1, and installs the initial uniform bins into the
// monitor. Config.WrapDriver, when set, interposes on the driver boundary.
func New(cfg Config, mon *monitor.Monitor, target Target) (*Controller, error) {
	if mon == nil {
		return nil, fmt.Errorf("%w: nil monitor", ErrConfig)
	}
	c, err := NewWithDriver(cfg, NewDirectDriver(mon, target))
	if err != nil {
		return nil, err
	}
	// Keep the explicit monitor even when a WrapDriver wrapper hides the
	// Unwrap chain monitorOf walks.
	c.mon = mon
	return c, nil
}

// NewWithDriver creates a controller over an explicit switch driver.
func NewWithDriver(cfg Config, drv Driver) (*Controller, error) {
	cfg, drv, err := prepare(cfg, drv)
	if err != nil {
		return nil, err
	}
	tr, err := trie.NewInitial(cfg.MonitorBudget, drv.Width())
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, tr: tr, drv: drv, mon: monitorOf(drv),
		depthAtLastExpansion: tr.Depth()}
	if _, err := c.installMonitoringImpl(c.tr.Leaves()); err != nil {
		return nil, err
	}
	// Journal the initial layout as round-0 commit state, so a crash before
	// the first committed round still recovers to a defined state.
	if cfg.Journal != nil {
		if err := cfg.Journal.Append(journalRecord(KindCommit, 0, cfg.CalcBudget,
			c.depthAtLastExpansion, tr)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// prepare validates the configuration, applies defaults, and wraps the
// driver; shared by NewWithDriver and Recover.
func prepare(cfg Config, drv Driver) (Config, Driver, error) {
	if drv == nil {
		return cfg, nil, fmt.Errorf("%w: nil driver", ErrConfig)
	}
	if cfg.ThBalance < 0 || cfg.ThBalance > 1 {
		return cfg, nil, fmt.Errorf("%w: ThBalance %g", ErrConfig, cfg.ThBalance)
	}
	if cfg.MonitorBudget < 1 {
		return cfg, nil, fmt.Errorf("%w: MonitorBudget %d", ErrConfig, cfg.MonitorBudget)
	}
	if cfg.CalcBudget < 1 {
		return cfg, nil, fmt.Errorf("%w: CalcBudget %d", ErrConfig, cfg.CalcBudget)
	}
	if cfg.AuditEvery < 0 {
		return cfg, nil, fmt.Errorf("%w: AuditEvery %d", ErrConfig, cfg.AuditEvery)
	}
	if cfg.MaxRebalances < 1 {
		cfg.MaxRebalances = 1
	}
	cfg.Retry = cfg.Retry.normalise()
	if cfg.UnhealthyAfter == 0 {
		cfg.UnhealthyAfter = 3
	}
	if cfg.WrapDriver != nil {
		drv = cfg.WrapDriver(drv)
	}
	return cfg, drv, nil
}

// monitorOf unwraps the driver chain looking for an in-process monitor.
func monitorOf(drv Driver) *monitor.Monitor {
	for drv != nil {
		if mp, ok := drv.(interface{ Monitor() *monitor.Monitor }); ok {
			return mp.Monitor()
		}
		uw, ok := drv.(interface{ Unwrap() Driver })
		if !ok {
			return nil
		}
		drv = uw.Unwrap()
	}
	return nil
}

// installMonitoringImpl installs the given bins through the driver and
// returns the TCAM write count.
func (c *Controller) installMonitoringImpl(bins []trie.Bin) (int, error) {
	prefixes := make([]bitstr.Prefix, len(bins))
	for i, b := range bins {
		prefixes[i] = b.Prefix
	}
	return c.drv.InstallMonitoring(prefixes)
}

// roundTracker accumulates one round's retry, backoff, cost, and injected
// latency accounting; backoff and injected latency count against the round
// deadline and fold into the reported Delay.
type roundTracker struct {
	c            *Controller
	ctx          context.Context
	retries      int
	driverErrors int
	cost         time.Duration // per-op charges for work performed
	backoff      time.Duration // modelled retry backoff
	injected     time.Duration // driver-injected latency (faults)
}

// cancelled reports whether the round's context has been cancelled.
func (rt *roundTracker) cancelled() bool {
	return rt.ctx != nil && rt.ctx.Err() != nil
}

// drain collects injected latency after a driver call.
func (rt *roundTracker) drain() {
	if lr, ok := rt.c.drv.(LatencyReporter); ok {
		rt.injected += lr.TakeInjectedLatency()
	}
}

func (rt *roundTracker) addCost(d time.Duration) { rt.cost += d }

// elapsed is the modelled delay accumulated so far.
func (rt *roundTracker) elapsed() time.Duration {
	return rt.c.cfg.Cost.Base + rt.cost + rt.backoff + rt.injected
}

func (rt *roundTracker) overDeadline() bool {
	dl := rt.c.cfg.Retry.RoundDeadline
	return dl > 0 && rt.elapsed() > dl
}

// retry runs op under the retry policy, charging exponential backoff between
// attempts. It stops early when the round deadline is exhausted or the
// round's context is cancelled, so a wedged injected outage cannot stall a
// caller past its own deadline.
func (rt *roundTracker) retry(op func() error) error {
	pol := rt.c.cfg.Retry
	backoff := pol.BaseBackoff
	var err error
	for attempt := 1; ; attempt++ {
		if rt.cancelled() {
			cerr := rt.ctx.Err()
			if err != nil {
				return fmt.Errorf("controlplane: round cancelled: %w (last driver error: %v)", cerr, err)
			}
			return fmt.Errorf("controlplane: round cancelled: %w", cerr)
		}
		err = op()
		rt.drain()
		if err == nil {
			return nil
		}
		rt.driverErrors++
		if attempt >= pol.MaxAttempts || rt.overDeadline() {
			return err
		}
		rt.retries++
		rt.backoff += backoff
		backoff *= 2
		if backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// Round executes one control round: snapshot registers → load a shadow trie
// → Algorithm 2 (+ expansion) → reinstall monitoring if changed → Algorithm
// 3 repopulation (atomic commit) → commit the shadow trie → reset registers.
//
// Driver failures do not return an error: the round aborts as Degraded with
// the last good population still fully installed, and the report carries the
// reason. A non-nil error means a programming or configuration fault, or
// ErrCrashed when an injected crash hook fired.
func (c *Controller) Round() (RoundReport, error) {
	return c.RoundCtx(context.Background())
}

// RoundCtx is Round with a cancellation signal: when ctx is cancelled the
// round's retry loops stop immediately and the round aborts as Degraded
// with ReasonCancelled, leaving the last good population installed. The
// controller itself stays usable.
func (c *Controller) RoundCtx(ctx context.Context) (RoundReport, error) {
	var rep RoundReport
	rt := &roundTracker{c: c, ctx: ctx}
	if c.crashed {
		return rep, ErrCrashed
	}
	if rt.cancelled() {
		return c.finishDegraded(rep, rt, ReasonCancelled, ctx.Err()), nil
	}

	// Degraded mode: serve the last good population and only probe the
	// driver. A successful probe re-enters normal operation immediately,
	// reusing the probe's snapshot.
	if c.health == Unhealthy {
		snap, err := c.drv.ReadRegisters()
		rt.drain()
		if err != nil {
			rt.driverErrors++
			return c.finishDegraded(rep, rt, ReasonUnhealthy, err), nil
		}
		c.health = Healthy
		c.consecFailures = 0
		rt.addCost(time.Duration(len(snap)) * c.cfg.Cost.PerRegisterRead)
		rep.Reads = len(snap)
		return c.roundWithSnapshot(rep, rt, snap)
	}

	// Resync: an earlier partial failure (install committed, populate rolled
	// back, rollback install failed) can leave the driver's bins diverged
	// from the trie. Reconverge before reading registers, else the snapshot
	// shape is meaningless.
	if c.drv.NumBins() != c.tr.NumLeaves() {
		var writes int
		err := rt.retry(func() error {
			var ierr error
			writes, ierr = c.installMonitoringImpl(c.tr.Leaves())
			return ierr
		})
		if err != nil {
			return c.finishDegraded(rep, rt, ReasonResync, err), nil
		}
		rep.TCAMWrites += writes
		rt.addCost(time.Duration(writes) * c.cfg.Cost.PerTCAMWrite)
		rep.Resynced = true
	}

	// 0. Read-back audit, when due: compare the hardware's calculation rows
	// against the expected population and commit an anti-entropy repair on
	// divergence. Runs before the register read so a repaired table is in
	// place for the whole round; a failed audit degrades the round like any
	// other driver step and stays pending for the next one.
	if c.auditDue() {
		aud := c.drv.(Auditor) // auditDue checked the assertion
		var arep AuditReport
		err := rt.retry(func() error {
			var aerr error
			arep, aerr = aud.AuditCalc(true)
			return aerr
		})
		if err != nil {
			return c.finishDegraded(rep, rt, ReasonAudit, err), nil
		}
		rep.AuditRan = true
		rep.Audit = arep
		rep.TCAMWrites += arep.RepairWrites
		rt.addCost(time.Duration(arep.Audited)*c.cfg.Cost.PerRowRead +
			time.Duration(arep.RepairWrites)*c.cfg.Cost.PerTCAMWrite)
		c.roundsSinceAudit = 0
		c.auditPending = false
		c.totals.Audits++
		c.totals.AuditMismatches += uint64(arep.Mismatched())
		c.totals.RepairWrites += uint64(arep.RepairWrites)
	}

	// 1. Read hit registers.
	var snap []uint64
	err := rt.retry(func() error {
		var rerr error
		snap, rerr = c.drv.ReadRegisters()
		return rerr
	})
	if err != nil {
		return c.finishDegraded(rep, rt, ReasonSnapshot, err), nil
	}
	rep.Reads = len(snap)
	rt.addCost(time.Duration(len(snap)) * c.cfg.Cost.PerRegisterRead)
	return c.roundWithSnapshot(rep, rt, snap)
}

// roundWithSnapshot runs the reshape/populate/commit pipeline on a shadow
// clone of the trie; c.tr moves only when every driver write has succeeded.
func (c *Controller) roundWithSnapshot(rep RoundReport, rt *roundTracker, snap []uint64) (RoundReport, error) {
	if rt.overDeadline() {
		return c.finishDegraded(rep, rt, ReasonDeadline, ErrDeadline), nil
	}

	// 2. Load the snapshot into a shadow trie. A shape mismatch means the
	// driver returned a stale or corrupt snapshot — keep the last good
	// state rather than poisoning the distribution estimate.
	work := c.tr.Clone()
	var err error
	if c.cfg.EWMADecay {
		work.DecayHits()
		err = work.AddLeafHits(snap)
	} else {
		err = work.SetLeafHits(snap)
	}
	if err != nil {
		return c.finishDegraded(rep, rt, ReasonStaleSnapshot, err), nil
	}
	rep.TotalHits = work.TotalHits()

	// 3. Reshape (Algorithm 2) on the shadow.
	structureChanged := false
	for i := 0; i < c.cfg.MaxRebalances; i++ {
		if !work.Rebalance(c.cfg.ThBalance) {
			break
		}
		rep.Rebalances++
		structureChanged = true
	}

	// 4. Expansion check (§III-B2): the monitoring TCAM earns another entry
	// when the distribution is skewed — either the trie deepened by at
	// least ThExpansion since the last expansion, or the imbalance persists
	// while Algorithm 2 cannot reshape further at the current entry count
	// (no mergeable sibling pair left, so only growth can zoom in). The
	// trie never shrinks.
	expanded := false
	stuck := rep.Rebalances < c.cfg.MaxRebalances && work.Imbalance() >= c.cfg.ThBalance
	deepened := work.Depth()-c.depthAtLastExpansion >= c.cfg.ThExpansion
	if c.cfg.ThExpansion > 0 && (deepened || stuck) {
		if c.monitorRoom(work) && work.Expand() {
			expanded = true
			structureChanged = true
		}
	}

	// 4b. Write-ahead intent: journal the state this round intends to
	// commit before the first driver write, then honour the after-intent
	// crash point — the classic WAL window a recovery must tolerate.
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.Append(journalRecord(KindIntent, c.totals.Rounds+1,
			c.cfg.CalcBudget, c.depthAtLastExpansion, work)); err != nil {
			return rep, err
		}
	}
	if c.crash(CrashAfterIntent) {
		return rep, ErrCrashed
	}

	// 5. Push the new monitoring bins when the structure moved.
	installed := false
	if structureChanged {
		var writes int
		err := rt.retry(func() error {
			var ierr error
			writes, ierr = c.installMonitoringImpl(work.Leaves())
			return ierr
		})
		if err != nil {
			return c.finishDegraded(rep, rt, ReasonInstall, err), nil
		}
		installed = true
		rep.TCAMWrites += writes
		rt.addCost(time.Duration(writes) * c.cfg.Cost.PerTCAMWrite)
		if c.crash(CrashAfterInstall) {
			return rep, ErrCrashed
		}
	}

	// abortInstalled rolls the monitoring bins back to the committed trie
	// before degrading; if the rollback fails too, the next round's resync
	// step reconverges. Injected driver latency is drained unconditionally
	// — a failed rollback still burned driver time, which must be charged
	// into the degraded round's Delay — and a failed rollback counts as a
	// driver error like any other failed call.
	abortInstalled := func(reason DegradeReason, err error) (RoundReport, error) {
		if installed {
			writes, rerr := c.installMonitoringImpl(c.tr.Leaves())
			rt.drain()
			if rerr != nil {
				rt.driverErrors++
			} else {
				rep.TCAMWrites += writes
				rt.addCost(time.Duration(writes) * c.cfg.Cost.PerTCAMWrite)
			}
		}
		return c.finishDegraded(rep, rt, reason, err), nil
	}

	if rt.overDeadline() {
		return abortInstalled(ReasonDeadline, ErrDeadline)
	}

	// 6. Repopulate the calculation table (Algorithm 3) as an atomic
	// shadow-generation commit, incrementally when the driver supports the
	// delta path.
	var writes, computed, reused int
	dp, hasDelta := c.drv.(DeltaPopulator)
	err = rt.retry(func() error {
		var perr error
		if hasDelta {
			writes, computed, reused, perr = dp.PopulateCalcDelta(work, c.cfg.CalcBudget)
		} else {
			writes, computed, perr = c.drv.PopulateCalc(work, c.cfg.CalcBudget)
		}
		return perr
	})
	if err != nil {
		return abortInstalled(ReasonPopulate, err)
	}
	rep.TCAMWrites += writes
	rep.Computed = computed
	rep.Reused = reused
	rt.addCost(time.Duration(writes)*c.cfg.Cost.PerTCAMWrite +
		time.Duration(computed)*c.cfg.Cost.PerEntryCompute +
		time.Duration(reused)*c.cfg.Cost.PerEntryReused)
	if c.crash(CrashAfterPopulate) {
		return rep, ErrCrashed
	}

	// 7. Commit the shadow trie: from here the round has happened, and the
	// trie's committed sequence records the state the table now serves.
	c.tr = work
	work.CommitGeneration()
	if expanded {
		rep.Expanded = true
		c.totals.Expansions++
		c.depthAtLastExpansion = work.Depth()
	}
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.Append(journalRecord(KindCommit, c.totals.Rounds+1,
			c.cfg.CalcBudget, c.depthAtLastExpansion, work)); err != nil {
			return rep, err
		}
	}
	if c.crash(CrashAfterCommit) {
		return rep, ErrCrashed
	}

	// 7b. Tier placement: when the driver fronts a tiered calculation store,
	// re-rank which rows the TCAM slice serves from the same per-bin hit
	// registers Algorithm 2 just consumed. Failure is non-fatal — placement
	// optimises the cost of an already-committed population, and the next
	// round simply re-ranks — but the moves that did land are charged.
	if tp, ok := c.drv.(TierPlacer); ok {
		var moves TierMoves
		var placed bool
		// Accumulate across retries: a failed attempt (e.g. a dropped ack)
		// may still have landed moves that must be charged.
		err := rt.retry(func() error {
			m, p, perr := tp.PlaceTiers(work)
			moves.Promotions += m.Promotions
			moves.Demotions += m.Demotions
			moves.TCAMWrites += m.TCAMWrites
			moves.SRAMWrites += m.SRAMWrites
			placed = placed || p
			return perr
		})
		if placed {
			rep.TierPlaced = true
			rep.TierPromotions = moves.Promotions
			rep.TierDemotions = moves.Demotions
			rep.SRAMWrites = moves.SRAMWrites
			rep.TCAMWrites += moves.TCAMWrites
			rt.addCost(time.Duration(moves.TCAMWrites)*c.cfg.Cost.PerTCAMWrite +
				time.Duration(moves.SRAMWrites)*c.cfg.Cost.PerSRAMWrite)
		}
		if err != nil {
			rep.TierPlaceFailed = true
		}
	}

	// 8. Reset the data-plane registers for the next round. A failure here
	// is non-fatal — the next snapshot simply carries this round's counts
	// too — but is surfaced for the health accounting.
	var regWrites int
	err = rt.retry(func() error {
		var rerr error
		regWrites, rerr = c.drv.ResetRegisters()
		return rerr
	})
	if err != nil {
		rep.ResetFailed = true
	} else {
		rep.RegisterWrites = regWrites
		rt.addCost(time.Duration(regWrites) * c.cfg.Cost.PerRegisterWrite)
	}

	rep.MonitorEntries = c.tr.NumLeaves()
	rep.Retries = rt.retries
	rep.DriverErrors = rt.driverErrors
	rep.InjectedLatency = rt.injected
	rep.Delay = c.cfg.Cost.RoundCost(rep.Reads, rep.RegisterWrites, rep.TCAMWrites, rep.Computed, rep.Reused) +
		time.Duration(rep.Audit.Audited)*c.cfg.Cost.PerRowRead +
		time.Duration(rep.SRAMWrites)*c.cfg.Cost.PerSRAMWrite +
		rt.backoff + rt.injected
	c.consecFailures = 0
	c.roundsSinceAudit++
	rep.Health = c.health

	c.totals.Rounds++
	c.totals.Reads += uint64(rep.Reads)
	c.totals.RegisterWrites += uint64(rep.RegisterWrites)
	c.totals.TCAMWrites += uint64(rep.TCAMWrites)
	c.totals.Rebalances += uint64(rep.Rebalances)
	c.totals.Computed += uint64(rep.Computed)
	c.totals.Reused += uint64(rep.Reused)
	c.totals.TierPromotions += uint64(rep.TierPromotions)
	c.totals.TierDemotions += uint64(rep.TierDemotions)
	c.totals.SRAMWrites += uint64(rep.SRAMWrites)
	c.totals.Retries += uint64(rt.retries)
	c.totals.DriverErrors += uint64(rt.driverErrors)
	c.totals.Delay += rep.Delay
	return rep, nil
}

// finishDegraded closes out an aborted round: the last good population keeps
// serving, the failure is accounted, and repeated failures flip the health
// state.
func (c *Controller) finishDegraded(rep RoundReport, rt *roundTracker, reason DegradeReason, err error) RoundReport {
	rep.Degraded = true
	if rt.cancelled() {
		reason = ReasonCancelled
	}
	rep.DegradedReason = reason
	// A retry-exhausted round may have left driver writes half-landed (a
	// "failed" write whose ack was dropped still programmed the hardware):
	// force a read-back audit on the next normal round.
	if c.cfg.AuditEvery > 0 && rt.driverErrors > 0 {
		c.auditPending = true
	}
	if err != nil {
		rep.LastError = err.Error()
	}
	rep.Retries = rt.retries
	rep.DriverErrors = rt.driverErrors
	rep.InjectedLatency = rt.injected
	rep.MonitorEntries = c.tr.NumLeaves()
	rep.Delay = rt.elapsed()
	c.consecFailures++
	if c.cfg.UnhealthyAfter > 0 && c.consecFailures >= c.cfg.UnhealthyAfter {
		c.health = Unhealthy
	}
	rep.Health = c.health

	c.totals.Rounds++
	c.totals.DegradedRounds++
	c.totals.Reads += uint64(rep.Reads)
	c.totals.TCAMWrites += uint64(rep.TCAMWrites)
	c.totals.Retries += uint64(rt.retries)
	c.totals.DriverErrors += uint64(rt.driverErrors)
	c.totals.Delay += rep.Delay
	return rep
}

// auditDue reports whether a read-back audit should run this round: audits
// are enabled, the driver can read back, and either the cadence elapsed or
// a retry-exhausted round left one pending.
func (c *Controller) auditDue() bool {
	if c.cfg.AuditEvery <= 0 {
		return false
	}
	if _, ok := c.drv.(Auditor); !ok {
		return false
	}
	return c.auditPending || c.roundsSinceAudit >= c.cfg.AuditEvery
}

// crash consults the injected crash hook at p; once it fires, the
// controller models a dead process and stays crashed.
func (c *Controller) crash(p CrashPoint) bool {
	if c.crashed {
		return true
	}
	if c.cfg.CrashHook != nil && c.cfg.CrashHook(p) {
		c.crashed = true
		return true
	}
	return false
}

// Crashed reports whether an injected crash hook has fired; a crashed
// controller must be discarded and rebuilt via Recover.
func (c *Controller) Crashed() bool { return c.crashed }

// Journal returns the write-ahead journal, or nil when journaling is off.
func (c *Controller) Journal() *Journal { return c.cfg.Journal }

// monitorRoom reports whether the monitoring TCAM can hold one more bin.
func (c *Controller) monitorRoom(tr *trie.Trie) bool {
	limit := c.cfg.MaxMonitorEntries
	if limit == 0 {
		limit = c.drv.MonitorCapacity()
	}
	if limit == 0 {
		return true // unbounded
	}
	return tr.NumLeaves() < limit
}

// Trie exposes the binning trie. The pointer changes at every committed
// round (rounds reshape a shadow clone and swap it in); callers should
// re-fetch rather than cache it across rounds.
func (c *Controller) Trie() *trie.Trie { return c.tr }

// Monitor returns the in-process data-plane monitor behind the driver, or
// nil when the driver chain does not expose one.
func (c *Controller) Monitor() *monitor.Monitor { return c.mon }

// Driver returns the (possibly wrapped) switch driver.
func (c *Controller) Driver() Driver { return c.drv }

// Health returns the controller's current driver-health state.
func (c *Controller) Health() Health { return c.health }

// Totals returns the cross-round accounting.
func (c *Controller) Totals() Totals { return c.totals }

// Config returns the effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// CalcBudget returns the calculation entry budget subsequent rounds will
// populate toward.
func (c *Controller) CalcBudget() int { return c.cfg.CalcBudget }

// SetCalcBudget changes the calculation entry budget used by subsequent
// rounds — the knob the tenant arbiter turns when it moves shared-table
// entries between operations. It must be called between rounds (the
// controller is not safe for concurrent use) and takes effect at the next
// populate.
func (c *Controller) SetCalcBudget(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: CalcBudget %d", ErrConfig, n)
	}
	c.cfg.CalcBudget = n
	return nil
}
