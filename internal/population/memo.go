package population

import (
	"fmt"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// This file implements the memoized form of Algorithm 3 used by the
// incremental control round. The contract with the plain builders is strict:
// given the same trie content, budget, and representative, the memoized path
// returns byte-identical output to ADAUnary/ADABinary — it only skips work
// it can prove unchanged, it never approximates. Three observations make
// that possible:
//
//  1. The trie exposes a monotonic ChangeSeq covering every leaf shape/mass
//     mutation, so equal sequence numbers mean identical allocation inputs
//     and the whole previous result can be returned as-is.
//  2. A recomputed allocation that equals the previous one yields the
//     previous population, so that build is returned as-is too: a round
//     whose hit counts moved without moving the allocation builds nothing.
//  3. An entry's result f(rep.Pick(p)) is a pure function of its prefix, so
//     the per-prefix evaluation cache never goes stale; only allocations
//     change, never the value attached to a kept prefix.
//
// A memo instance is tied to one (operation, representative) pair: the
// function itself cannot be fingerprinted, so reusing a memo across
// different operations is a caller bug.

// AllocCache memoizes ADAAllocate across control rounds: the allocation is
// reused wholesale while the trie has not mutated. The zero value is ready
// to use.
type AllocCache struct {
	valid    bool
	width    int
	budget   int
	seq      uint64 // trie ChangeSeq at fill time
	prefixes []bitstr.Prefix
}

// Invalidate drops all cached state; the next call recomputes from scratch.
func (c *AllocCache) Invalidate() { *c = AllocCache{} }

// ADAAllocateCached is ADAAllocate's incremental mode: identical output,
// reused wholesale when the trie has not mutated since the cache was filled
// (reused reports that case; the returned slice is the cached one and must
// not be mutated). A nil cache degrades to the plain ADAAllocate.
func ADAAllocateCached(t *trie.Trie, budget int, c *AllocCache) (prefixes []bitstr.Prefix, reused bool, err error) {
	if budget < 1 {
		return nil, false, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	if c == nil {
		ps, err := ADAAllocate(t, budget)
		return ps, false, err
	}
	if c.valid && c.width == t.Width() && c.budget == budget && c.seq == t.ChangeSeq() {
		return c.prefixes, true, nil
	}
	ps, err := ADAAllocate(t, budget)
	if err != nil {
		c.Invalidate()
		return nil, false, err
	}
	*c = AllocCache{valid: true, width: t.Width(), budget: budget, seq: t.ChangeSeq(), prefixes: ps}
	return ps, false, nil
}

// samePrefixes reports whether two allocations are identical.
func samePrefixes(a, b []bitstr.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UnaryMemo carries the memoized state for one unary (operation,
// representative) pair across control rounds. The zero value is ready.
type UnaryMemo struct {
	alloc AllocCache
	// evals accumulates f(rep.Pick(p)) per prefix; pure, so never stale.
	evals map[bitstr.Prefix]uint64
	// build numbers the population builds; it survives Invalidate so a
	// number is never reused for different contents.
	build uint64

	valid   bool
	width   int
	budget  int
	rep     Representative
	seq     uint64
	entries []UnaryEntry
	results map[bitstr.Prefix]uint64
}

// UnaryMemoResult is one memoized population build.
type UnaryMemoResult struct {
	// Entries is the population, identical to what ADAUnary would return.
	// When the build is reused it aliases the memo's cache; callers must
	// not mutate it.
	Entries []UnaryEntry
	// Results maps each installed prefix to its result — the shadow copy a
	// delta-committing target diffs against. A new build gets a new map, so
	// callers may retain it across calls.
	Results map[bitstr.Prefix]uint64
	// Build identifies the Entries/Results pair: a result with the same
	// Build as an earlier one from the same memo holds the same population.
	// Builds start at 1.
	Build uint64
	// Computed and Reused split the entry count into fresh function
	// evaluations and cache hits (the paper's Table II compute accounting).
	Computed int
	Reused   int
	// AllocReused reports that the whole allocation was reused because the
	// trie had not mutated since the previous build.
	AllocReused bool
}

// Invalidate drops all cached state.
func (m *UnaryMemo) Invalidate() { *m = UnaryMemo{build: m.build} }

// ADAUnaryMemo is ADAUnary with cross-round memoization. Output is
// byte-identical to ADAUnary for the same inputs; m must be dedicated to
// this (f, rep) pair.
func ADAUnaryMemo(t *trie.Trie, f UnaryFunc, budget int, rep Representative, m *UnaryMemo) (UnaryMemoResult, error) {
	if m == nil {
		entries, err := ADAUnary(t, f, budget, rep)
		if err != nil {
			return UnaryMemoResult{}, err
		}
		results := make(map[bitstr.Prefix]uint64, len(entries))
		for _, e := range entries {
			results[e.P] = e.Result
		}
		return UnaryMemoResult{Entries: entries, Results: results, Computed: len(entries)}, nil
	}
	same := m.valid && m.width == t.Width() && m.budget == budget && m.rep == rep
	if same && m.seq == t.ChangeSeq() {
		return m.reuse(true), nil
	}
	if m.rep != rep || m.width != t.Width() {
		// A different representative (or domain) invalidates every cached
		// evaluation, not just the allocation.
		m.Invalidate()
	}
	prev := m.alloc.prefixes // the allocation m.entries was built from
	prefixes, allocReused, err := ADAAllocateCached(t, budget, &m.alloc)
	if err != nil {
		m.Invalidate()
		return UnaryMemoResult{}, err
	}
	if same && samePrefixes(prefixes, prev) {
		m.seq = t.ChangeSeq()
		return m.reuse(allocReused), nil
	}
	if m.evals == nil {
		m.evals = make(map[bitstr.Prefix]uint64, len(prefixes))
	}
	m.build++
	res := UnaryMemoResult{
		Entries:     make([]UnaryEntry, len(prefixes)),
		Results:     make(map[bitstr.Prefix]uint64, len(prefixes)),
		Build:       m.build,
		AllocReused: allocReused,
	}
	for i, p := range prefixes {
		r, ok := m.evals[p]
		if ok {
			res.Reused++
		} else {
			r = f(rep.Pick(p))
			m.evals[p] = r
			res.Computed++
		}
		res.Entries[i] = UnaryEntry{P: p, Result: r}
		res.Results[p] = r
	}
	m.valid = true
	m.width, m.budget, m.rep = t.Width(), budget, rep
	m.seq = t.ChangeSeq()
	m.entries, m.results = res.Entries, res.Results
	return res, nil
}

// reuse returns the memo's current build, every entry served from cache.
func (m *UnaryMemo) reuse(allocReused bool) UnaryMemoResult {
	return UnaryMemoResult{
		Entries: m.entries, Results: m.results, Build: m.build,
		Reused: len(m.entries), AllocReused: allocReused,
	}
}

// BinaryPair is the match key of one two-operand entry.
type BinaryPair struct {
	X, Y bitstr.Prefix
}

// BinaryMemo carries the memoized state for one binary (operation,
// representative) pair across control rounds. The zero value is ready.
type BinaryMemo struct {
	ax, ay AllocCache
	evals  map[BinaryPair]uint64
	build  uint64 // see UnaryMemo.build

	valid      bool
	budget     int
	rep        Representative
	wx, wy     int
	seqX, seqY uint64
	entries    []BinaryEntry
	results    map[BinaryPair]uint64
}

// BinaryMemoResult is one memoized two-operand population build.
type BinaryMemoResult struct {
	// Entries is the population, identical to ADABinary's output; when the
	// build is reused it aliases the memo's cache.
	Entries []BinaryEntry
	// Results maps each installed pair to its result; a new build gets a
	// new map, so callers may retain it.
	Results map[BinaryPair]uint64
	// Build identifies the population, as UnaryMemoResult.Build does.
	Build    uint64
	Computed int
	Reused   int
	// AllocReused reports that both marginal allocations were reused.
	AllocReused bool
}

// Invalidate drops all cached state.
func (m *BinaryMemo) Invalidate() { *m = BinaryMemo{build: m.build} }

// ADABinaryMemo is ADABinary with cross-round memoization. Output is
// byte-identical to ADABinary for the same inputs; m must be dedicated to
// this (f, rep) pair. The spread-proportional budget factoring is recomputed
// every call (it is cheap and depends on the full hit distribution); the
// per-marginal Algorithm 3 runs and the pair evaluations are memoized.
func ADABinaryMemo(tx, ty *trie.Trie, f BinaryFunc, budget int, rep Representative, m *BinaryMemo) (BinaryMemoResult, error) {
	if budget < 1 {
		return BinaryMemoResult{}, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	if m == nil {
		entries, err := ADABinary(tx, ty, f, budget, rep)
		if err != nil {
			return BinaryMemoResult{}, err
		}
		results := make(map[BinaryPair]uint64, len(entries))
		for _, e := range entries {
			results[BinaryPair{X: e.X, Y: e.Y}] = e.Result
		}
		return BinaryMemoResult{
			Entries: entries, Results: results,
			Computed: len(entries),
		}, nil
	}
	same := m.valid && m.budget == budget && m.rep == rep &&
		m.wx == tx.Width() && m.wy == ty.Width()
	if same && m.seqX == tx.ChangeSeq() && m.seqY == ty.ChangeSeq() {
		return m.reuse(true), nil
	}
	if m.rep != rep || m.wx != tx.Width() || m.wy != ty.Width() {
		m.Invalidate()
	}
	mx, my := BinarySideBudgets(tx, ty, budget)
	prevX, prevY := m.ax.prefixes, m.ay.prefixes // m.entries' marginals
	xs, rx, err := ADAAllocateCached(tx, mx, &m.ax)
	if err != nil {
		m.Invalidate()
		return BinaryMemoResult{}, err
	}
	ys, ry, err := ADAAllocateCached(ty, my, &m.ay)
	if err != nil {
		m.Invalidate()
		return BinaryMemoResult{}, err
	}
	if same && samePrefixes(xs, prevX) && samePrefixes(ys, prevY) {
		m.seqX, m.seqY = tx.ChangeSeq(), ty.ChangeSeq()
		return m.reuse(rx && ry), nil
	}
	if m.evals == nil {
		m.evals = make(map[BinaryPair]uint64, len(xs)*len(ys))
	}
	m.build++
	res := BinaryMemoResult{
		Entries:     make([]BinaryEntry, 0, len(xs)*len(ys)),
		Results:     make(map[BinaryPair]uint64, len(xs)*len(ys)),
		Build:       m.build,
		AllocReused: rx && ry,
	}
	for _, x := range xs {
		var repX uint64
		haveRepX := false
		for _, y := range ys {
			k := BinaryPair{X: x, Y: y}
			r, ok := m.evals[k]
			if ok {
				res.Reused++
			} else {
				if !haveRepX {
					repX = rep.Pick(x)
					haveRepX = true
				}
				r = f(repX, rep.Pick(y))
				m.evals[k] = r
				res.Computed++
			}
			res.Entries = append(res.Entries, BinaryEntry{X: x, Y: y, Result: r})
			res.Results[k] = r
		}
	}
	m.valid = true
	m.budget, m.rep = budget, rep
	m.wx, m.wy = tx.Width(), ty.Width()
	m.seqX, m.seqY = tx.ChangeSeq(), ty.ChangeSeq()
	m.entries, m.results = res.Entries, res.Results
	return res, nil
}

// reuse returns the memo's current build, every entry served from cache.
func (m *BinaryMemo) reuse(allocReused bool) BinaryMemoResult {
	return BinaryMemoResult{
		Entries: m.entries, Results: m.results, Build: m.build,
		Reused: len(m.entries), AllocReused: allocReused,
	}
}
