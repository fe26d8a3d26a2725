package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/stats"
)

// RoundBenchConfig parameterises the control-round microbenchmark: the
// incremental round (memoized Algorithm 3 + delta TCAM commit) against full
// repopulation, swept across churn levels.
type RoundBenchConfig struct {
	// ChurnLevels are the fractions of monitoring bins whose allocation
	// moves every round (0 = fully converged, 1 = every bin moves).
	ChurnLevels []float64
	// Rounds is the timed rounds per trial of each mode; each churn level
	// runs roundBenchTrials interleaved trials per mode.
	Rounds int
	// Warmup is the untimed converged rounds run first, so both systems
	// start the churn from the same settled allocation.
	Warmup int
	// MonitorEntries is the monitoring bin count (held fixed: the feed keeps
	// bins balanced so the structure never reshapes).
	MonitorEntries int
	// CalcBudget is the calculation TCAM budget. At 1.5 entries per bin
	// per level of refinement (e.g. 768 over 64 bins) the uniform feed
	// refines half the bins one level finer than the rest, so which half
	// wins is decided by the churned bins' hit counts.
	CalcBudget int
	// Width is the operand width in bits.
	Width int
	// BaseCount is the per-bin hit count fed each round; a churned bin
	// receives 1.2·BaseCount on alternate rounds. The imbalance (0.167)
	// stays below the 0.20 rebalance threshold, so the bin structure never
	// reshapes; only the allocation moves.
	BaseCount int
}

// roundBenchTrials is the number of interleaved full/incremental trials per
// churn level; the speedup is the median of the per-trial ratios.
const roundBenchTrials = 5

// DefaultRoundBenchConfig returns the acceptance sweep: churn 0%, 5%, 50%,
// and 100% at a 768-entry calculation budget over 64 bins.
func DefaultRoundBenchConfig() RoundBenchConfig {
	return RoundBenchConfig{
		ChurnLevels:    []float64{0, 0.05, 0.5, 1},
		Rounds:         30,
		Warmup:         5,
		MonitorEntries: 64,
		CalcBudget:     768,
		Width:          16,
		BaseCount:      100,
	}
}

// RoundBenchRow is one churn level's incremental-vs-full measurements.
// *_ns are wall-clock nanoseconds per control round, the mean over every
// timed round; speedup is the median per-trial full/incremental ratio and
// speedup_min/max its range; writes/computed/reused are per-round averages;
// delay_*_ns is the modelled CostModel delay.
type RoundBenchRow struct {
	Churn        float64 `json:"churn"`
	Budget       int     `json:"budget"`
	IncNs        float64 `json:"incremental_ns"`
	FullNs       float64 `json:"full_ns"`
	Speedup      float64 `json:"speedup"`
	SpeedupMin   float64 `json:"speedup_min"`
	SpeedupMax   float64 `json:"speedup_max"`
	IncWrites    float64 `json:"incremental_tcam_writes"`
	FullWrites   float64 `json:"full_tcam_writes"`
	IncComputed  float64 `json:"incremental_computed"`
	FullComputed float64 `json:"full_computed"`
	IncReused    float64 `json:"incremental_reused"`
	IncDelayNs   float64 `json:"incremental_delay_ns"`
	FullDelayNs  float64 `json:"full_delay_ns"`
}

// roundBenchSystem builds one unary system for the bench; incremental
// selects the delta path, otherwise every round repopulates in full.
func roundBenchSystem(cfg RoundBenchConfig, incremental bool) (*core.UnarySystem, error) {
	c := core.DefaultConfig(cfg.Width)
	c.MonitorEntries = cfg.MonitorEntries
	// Pin the monitoring budget so adaptive expansion cannot reshape the
	// bins mid-measurement; churn must be the only moving part.
	c.MaxMonitorEntries = cfg.MonitorEntries
	c.CalcEntries = cfg.CalcBudget
	c.DisableIncremental = !incremental
	return core.NewUnary(c, arith.OpSquare)
}

// roundBenchFeed builds one round's operand stream: every bin receives
// BaseCount observations of its low representative value, and each of the
// last nChurn bins receives 20% more on alternate rounds, half of them on
// odd rounds and half on even ones. Algorithm 3 refines the hotter bins
// first, so every churned bin's allocation moves each round — from a coarse
// level to the fine one or back — along with the cold bins the churned
// ones displace from the fine half. At churn 1 the two halves swap
// wholesale.
func roundBenchFeed(sys *core.UnarySystem, base, nChurn, round int, buf []uint64) []uint64 {
	prefixes := sys.Controller().Monitor().Prefixes()
	buf = buf[:0]
	for i, p := range prefixes {
		n := base
		if i >= len(prefixes)-nChurn && (i+round)%2 == 0 {
			n += base / 5
		}
		for j := 0; j < n; j++ {
			buf = append(buf, p.Lo())
		}
	}
	return buf
}

// roundBenchRun drives one system through the bench's rounds and sums the
// timed rounds' measurements.
type roundBenchRun struct {
	sys   *core.UnarySystem
	base  int
	round int
	buf   []uint64

	rounds                                int
	wall, writes, computed, reused, delay float64
}

// run feeds and runs n control rounds at nChurn churned bins. Only
// Controller.Round — snapshot, Algorithm 2/3, table pushes — is timed; the
// wall time of the n rounds is returned and, when timed, every measurement
// is added to the run's sums.
func (r *roundBenchRun) run(n, nChurn int, timed bool) (float64, error) {
	var wall float64
	for i := 0; i < n; i++ {
		r.buf = roundBenchFeed(r.sys, r.base, nChurn, r.round, r.buf)
		r.round++
		r.sys.ObserveAll(r.buf)
		start := time.Now()
		rep, err := r.sys.Controller().Round()
		elapsed := time.Since(start)
		if err != nil {
			return 0, err
		}
		if rep.Degraded {
			return 0, fmt.Errorf("roundbench: degraded round (%s) with no faults injected", rep.DegradedReason)
		}
		wall += float64(elapsed.Nanoseconds())
		if timed {
			r.rounds++
			r.wall += float64(elapsed.Nanoseconds())
			r.writes += float64(rep.TCAMWrites)
			r.computed += float64(rep.Computed)
			r.reused += float64(rep.Reused)
			r.delay += float64(rep.Delay.Nanoseconds())
		}
	}
	return wall, nil
}

// RunRoundBench measures incremental vs full control rounds at each churn
// level. Both systems see identical feeds: a converged warmup, then
// roundBenchTrials interleaved trials of cfg.Rounds rounds each (full, then
// incremental), so drift between trials lands on both sides of each
// per-trial ratio. Their calculation tables are asserted bit-identical
// after every trial — the benchmark doubles as an end-to-end equivalence
// check — and the sweep asserts that the churn does what it says:
// incremental writes and fresh evaluations grow with the churn level.
func RunRoundBench(cfg RoundBenchConfig) ([]RoundBenchRow, error) {
	rows := make([]RoundBenchRow, 0, len(cfg.ChurnLevels))
	for _, churn := range cfg.ChurnLevels {
		nChurn := int(churn*float64(cfg.MonitorEntries) + 0.5)
		var runs [2]roundBenchRun // full, incremental
		for i := range runs {
			sys, err := roundBenchSystem(cfg, i == 1)
			if err != nil {
				return nil, err
			}
			runs[i] = roundBenchRun{sys: sys, base: cfg.BaseCount}
			if _, err := runs[i].run(cfg.Warmup, 0, false); err != nil {
				return nil, err
			}
		}
		ratios := make([]float64, roundBenchTrials)
		for k := range ratios {
			var ns [2]float64
			for i := range runs {
				var err error
				if ns[i], err = runs[i].run(cfg.Rounds, nChurn, true); err != nil {
					return nil, err
				}
			}
			ratios[k] = ns[0] / ns[1]
			if runs[1].sys.Engine().Table().Fingerprint() != runs[0].sys.Engine().Table().Fingerprint() {
				return nil, fmt.Errorf("roundbench: incremental and full tables diverge at churn %.2f", churn)
			}
		}
		full, inc := &runs[0], &runs[1]
		n := float64(inc.rounds)
		rows = append(rows, RoundBenchRow{
			Churn:        churn,
			Budget:       cfg.CalcBudget,
			IncNs:        inc.wall / n,
			FullNs:       full.wall / n,
			Speedup:      median(ratios),
			SpeedupMin:   slices.Min(ratios),
			SpeedupMax:   slices.Max(ratios),
			IncWrites:    inc.writes / n,
			FullWrites:   full.writes / n,
			IncComputed:  inc.computed / n,
			FullComputed: full.computed / n,
			IncReused:    inc.reused / n,
			IncDelayNs:   inc.delay / n,
			FullDelayNs:  full.delay / n,
		})
	}
	for i := 1; i < len(rows); i++ {
		prev, r := rows[i-1], rows[i]
		if r.Churn > prev.Churn && (r.IncWrites <= prev.IncWrites || r.IncComputed <= prev.IncComputed) {
			return nil, fmt.Errorf("roundbench: churn %.2f → %.2f does not grow the work: writes %.1f → %.1f, computed %.1f → %.1f",
				prev.Churn, r.Churn, prev.IncWrites, r.IncWrites, prev.IncComputed, r.IncComputed)
		}
	}
	return rows, nil
}

// RenderRoundBench formats the rows.
func RenderRoundBench(rows []RoundBenchRow) string {
	t := stats.NewTable("Control-round microbenchmark: incremental vs full repopulation (per round)",
		"churn", "budget", "inc ns", "full ns", "speedup", "speedup range", "inc writes", "full writes",
		"inc computed", "full computed", "inc reused")
	for _, r := range rows {
		t.AddF(fmt.Sprintf("%.0f%%", 100*r.Churn), r.Budget,
			fmt.Sprintf("%.0f", r.IncNs), fmt.Sprintf("%.0f", r.FullNs),
			fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprintf("%.1f-%.1fx", r.SpeedupMin, r.SpeedupMax),
			fmt.Sprintf("%.1f", r.IncWrites), fmt.Sprintf("%.1f", r.FullWrites),
			fmt.Sprintf("%.1f", r.IncComputed), fmt.Sprintf("%.1f", r.FullComputed),
			fmt.Sprintf("%.1f", r.IncReused))
	}
	return t.String()
}
