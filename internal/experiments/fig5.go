// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each figure has a config struct with paper-faithful
// defaults scaled to run in seconds, a typed result, and a Render method
// producing the text table cmd/adabench prints; experiments_test.go asserts
// the paper's shape on each. The benchmarks (the *bench.go files) return
// typed results that cmd/adabench -out writes as the committed
// BENCH_*.json files; the experiments package itself writes no files.
package experiments

import (
	"fmt"
	"math"

	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/trie"
)

// Paper-wide constants (§IV, §V-A).
const (
	// DomainMax is the Fig 5 operand domain upper bound.
	DomainMax = 650000
	// DomainWidth is the operand width holding DomainMax.
	DomainWidth = 20
	// ThBalance is Algorithm 2's threshold.
	ThBalance = 0.20
	// ThExpansion is the monitoring-growth threshold.
	ThExpansion = 2
)

// Fig5Config parameterises the distribution-convergence study.
type Fig5Config struct {
	// MonitorBins is the trie's bin budget (the paper effectively uses
	// domain/binsize = 325; smaller still shows convergence).
	MonitorBins int
	// Rounds is the number of control rounds (sample → rebalance → reset).
	Rounds int
	// SamplesPerRound is the operand draw per round.
	SamplesPerRound int
	// FineBins is the resolution of the reference histogram TV distance is
	// computed against.
	FineBins int
	// Seed drives sampling.
	Seed int64
}

// DefaultFig5Config returns a seconds-scale configuration.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		MonitorBins:     64,
		Rounds:          60,
		SamplesPerRound: 4000,
		FineBins:        128,
		Seed:            1,
	}
}

// Fig5Row is one distribution's convergence result.
type Fig5Row struct {
	// Name identifies the distribution (Fig 5a–e).
	Name string
	// Bins is the final leaf count.
	Bins int
	// TVInitial is the total-variation distance between the initial
	// uniform binning's implied density and the true sample histogram.
	TVInitial float64
	// TVFinal is the distance after convergence.
	TVFinal float64
	// Depth is the final trie depth.
	Depth int
}

// Fig5Distributions returns the five §V-A1 distributions over the paper's
// domain.
func Fig5Distributions() []dist.Distribution {
	g1 := dist.Gaussian{Mu: 16000, Sigma: 10000}
	g2 := dist.Gaussian{Mu: 48000, Sigma: 10000}
	mix2g, _ := dist.NewMixture(dist.Component{D: g1, Weight: 1}, dist.Component{D: g2, Weight: 1})
	expD := dist.Exponential{Rate: 10, Scale: DomainMax}
	mixEG, _ := dist.NewMixture(dist.Component{D: expD, Weight: 1}, dist.Component{D: g1, Weight: 1})
	return []dist.Distribution{
		dist.Uniform{Lo: 0, Hi: DomainMax},
		expD,
		dist.FisherF{D1: 100, D2: 20, Scale: DomainMax / 8},
		mix2g,
		mixEG,
	}
}

// trieImpliedTV computes the total-variation distance between the empirical
// fine histogram of samples and the density implied by the trie (each
// leaf's hits spread uniformly over its interval). Lower means the bins
// model the PDF more closely.
func trieImpliedTV(tr *trie.Trie, samples []uint64, fineBins int) float64 {
	if tr.TotalHits() == 0 || len(samples) == 0 {
		return 1
	}
	domain := float64(uint64(1) << DomainWidth)
	binW := domain / float64(fineBins)

	ref := make([]float64, fineBins)
	for _, s := range samples {
		i := int(float64(s) / binW)
		if i >= fineBins {
			i = fineBins - 1
		}
		ref[i]++
	}
	normalise(ref)

	implied := make([]float64, fineBins)
	for _, leaf := range tr.Leaves() {
		if leaf.Hits == 0 {
			continue
		}
		lo, hi := float64(leaf.Prefix.Lo()), float64(leaf.Prefix.Hi())+1
		first := int(lo / binW)
		last := int((hi - 1) / binW)
		if last >= fineBins {
			last = fineBins - 1
		}
		for b := first; b <= last; b++ {
			bLo := math.Max(lo, float64(b)*binW)
			bHi := math.Min(hi, float64(b+1)*binW)
			implied[b] += float64(leaf.Hits) * (bHi - bLo) / (hi - lo)
		}
	}
	normalise(implied)

	tv := 0.0
	for i := range ref {
		tv += math.Abs(ref[i] - implied[i])
	}
	return tv / 2
}

func normalise(v []float64) {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// RunFig5 drives Algorithms 1+2 against each §V-A1 distribution until
// steady state and reports how closely the learned bins model the PDF.
func RunFig5(cfg Fig5Config) ([]Fig5Row, error) {
	var rows []Fig5Row
	for i, d := range Fig5Distributions() {
		truncated := dist.Truncated{D: d, Lo: 0, Hi: DomainMax}
		sampler := dist.NewIntSampler(truncated, uint64(1)<<DomainWidth-1, cfg.Seed+int64(i))
		tr, err := trie.NewInitial(cfg.MonitorBins, DomainWidth)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", d.Name(), err)
		}
		reference := sampler.Draw(cfg.SamplesPerRound * 4)

		// Initial TV: uniform bins fed one round of samples.
		tr.RecordAll(reference)
		initialTV := trieImpliedTV(tr, reference, cfg.FineBins)

		for round := 0; round < cfg.Rounds; round++ {
			tr.ResetHits()
			tr.RecordAll(sampler.Draw(cfg.SamplesPerRound))
			for i := 0; i < 4 && tr.Rebalance(ThBalance); i++ {
			}
		}
		tr.ResetHits()
		tr.RecordAll(reference)
		finalTV := trieImpliedTV(tr, reference, cfg.FineBins)
		rows = append(rows, Fig5Row{
			Name:      d.Name(),
			Bins:      tr.NumLeaves(),
			TVInitial: initialTV,
			TVFinal:   finalTV,
			Depth:     tr.Depth(),
		})
	}
	return rows, nil
}

// RenderFig5 formats the rows.
func RenderFig5(rows []Fig5Row) string {
	t := stats.NewTable("Fig 5: bins converge to the operand PDF (TV distance, lower = closer)",
		"distribution", "bins", "TV initial", "TV converged", "depth")
	for _, r := range rows {
		t.AddF(r.Name, r.Bins, r.TVInitial, r.TVFinal, r.Depth)
	}
	return t.String()
}

// Fig6Config parameterises the adaptive-increment study (§V-A2).
type Fig6Config struct {
	// Mu and Sigma describe the Gaussian (paper: median 4000, variance
	// 32500 → σ ≈ 180).
	Mu, Sigma float64
	// InitialBins is the starting budget (paper: b = 1, i.e. two bins).
	InitialBins int
	// Iterations is the number of trie-changing iterations to record.
	Iterations int
	// SamplesPerRound is the draw per control round.
	SamplesPerRound int
	// Seed drives sampling.
	Seed int64
}

// DefaultFig6Config returns the paper's setup.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Mu:              4000,
		Sigma:           math.Sqrt(32500),
		InitialBins:     2,
		Iterations:      5,
		SamplesPerRound: 2000,
		Seed:            6,
	}
}

// Fig6Row is one iteration snapshot.
type Fig6Row struct {
	// Iteration counts trie changes (0 = initial).
	Iteration int
	// Bins is the leaf count.
	Bins int
	// Depth is the maximum leaf depth.
	Depth int
	// TV is the distance to the true distribution.
	TV float64
}

// RunFig6 starts from b = 1 and lets the expansion rule grow the monitoring
// trie, recording each change (paper: 2 bins → 6 bins across five
// iterations).
func RunFig6(cfg Fig6Config) ([]Fig6Row, error) {
	g := dist.Truncated{D: dist.Gaussian{Mu: cfg.Mu, Sigma: cfg.Sigma}, Lo: 0, Hi: DomainMax}
	sampler := dist.NewIntSampler(g, uint64(1)<<DomainWidth-1, cfg.Seed)
	tr, err := trie.NewInitial(cfg.InitialBins, DomainWidth)
	if err != nil {
		return nil, err
	}
	reference := sampler.Draw(cfg.SamplesPerRound * 4)
	record := func(iter int) Fig6Row {
		snapshot := tr.Clone()
		snapshot.ResetHits()
		snapshot.RecordAll(reference)
		return Fig6Row{
			Iteration: iter,
			Bins:      tr.NumLeaves(),
			Depth:     tr.Depth(),
			TV:        trieImpliedTV(snapshot, reference, 128),
		}
	}
	rows := []Fig6Row{record(0)}
	iter := 0
	for guard := 0; iter < cfg.Iterations && guard < cfg.Iterations*20; guard++ {
		tr.ResetHits()
		tr.RecordAll(sampler.Draw(cfg.SamplesPerRound))
		changed := false
		for i := 0; i < 4 && tr.Rebalance(ThBalance); i++ {
			changed = true
		}
		// Expansion rule: persistent imbalance without reshaping room grows
		// the trie (§III-B2).
		if tr.Imbalance() >= ThBalance && tr.Expand() {
			changed = true
		}
		if changed {
			iter++
			rows = append(rows, record(iter))
		}
	}
	return rows, nil
}

// RenderFig6 formats the rows.
func RenderFig6(rows []Fig6Row) string {
	t := stats.NewTable("Fig 6: adaptive increment from b=1 (bins grow to match a tight Gaussian)",
		"iteration", "bins", "depth", "TV distance")
	for _, r := range rows {
		t.AddF(r.Iteration, r.Bins, r.Depth, r.TV)
	}
	return t.String()
}
