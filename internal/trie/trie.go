// Package trie implements ADA's binning trie (paper §III-A): a binary trie
// over the operand bit-space whose leaves are the monitoring bins. Each leaf
// corresponds to one wildcard TCAM entry plus one hit register in the data
// plane.
//
// Algorithm 1 (initialisation) builds a complete trie with b = log2(M)
// significant bits, i.e. M equal-sized bins. Algorithm 2 (adaptive update)
// reshapes the trie: when the hit imbalance between the hottest and coldest
// bins exceeds a threshold, the coldest sibling pair of leaves is merged into
// its parent and the hottest leaf is split in two, keeping the entry count
// fixed while zooming into the dense region of the operand distribution.
package trie

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/ada-repro/ada/internal/bitstr"
)

var (
	// ErrBudget reports a monitoring entry budget below one.
	ErrBudget = errors.New("trie: entry budget must be at least 1")
	// ErrWidth reports an operand width outside [1, 64].
	ErrWidth = errors.New("trie: width must be in [1, 64]")
	// ErrLeafCount reports a register snapshot whose length does not match
	// the current leaf count.
	ErrLeafCount = errors.New("trie: snapshot length does not match leaf count")
	// ErrNoSplit reports that no leaf can be split (all at full depth).
	ErrNoSplit = errors.New("trie: no splittable leaf")
	// ErrNoMerge reports that no sibling leaf pair exists to merge.
	ErrNoMerge = errors.New("trie: no mergeable sibling pair")
)

// Node is one trie node. Leaves are bins; internal nodes exist only as
// structure. Nodes are exposed read-only so population schemes (Algorithm 3)
// can traverse the tree.
type Node struct {
	prefix      bitstr.Prefix
	left, right *Node
	hits        uint64
}

// Prefix returns the wildcard pattern this node covers.
func (n *Node) Prefix() bitstr.Prefix { return n.prefix }

// Left returns the 0-branch child, or nil for a leaf.
func (n *Node) Left() *Node { return n.left }

// Right returns the 1-branch child, or nil for a leaf.
func (n *Node) Right() *Node { return n.right }

// IsLeaf reports whether n is a bin.
func (n *Node) IsLeaf() bool { return n.left == nil && n.right == nil }

// Hits returns the hit count recorded at a leaf. For internal nodes it
// returns the aggregated subtree total as of the last call to the owning
// trie's AggregateHits.
func (n *Node) Hits() uint64 { return n.hits }

// Bin is a leaf snapshot: its covered interval and hit count.
type Bin struct {
	Prefix bitstr.Prefix
	Hits   uint64
}

// Trie is the mutable binning tree. It is not safe for concurrent use; the
// control plane owns it exclusively.
//
// Every change to leaf shape or hit mass advances a monotonic change
// sequence, so a population memo can tell "this exact trie content" apart
// from "a trie that mutated and mutated back".
type Trie struct {
	width  int
	root   *Node
	leaves int

	// seq advances on every leaf shape or mass change; gen advances on
	// every CommitGeneration; commitSeq records seq as of the last commit.
	seq       uint64
	gen       uint64
	commitSeq uint64
}

// NewInitial runs Algorithm 1: given the monitoring entry budget m over
// width-bit operands, it builds the trie with b = floor(log2(m)) significant
// bits, i.e. 2^b equal-sized bins (capped at the operand width).
func NewInitial(m, width int) (*Trie, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, m)
	}
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("%w: got %d", ErrWidth, width)
	}
	b := int(math.Floor(math.Log2(float64(m))))
	if b > width {
		b = width
	}
	root, err := bitstr.Root(width)
	if err != nil {
		return nil, err
	}
	t := &Trie{width: width, root: &Node{prefix: root}, leaves: 1}
	var grow func(n *Node, depth int) error
	grow = func(n *Node, depth int) error {
		if depth == 0 {
			return nil
		}
		if err := t.split(n); err != nil {
			return err
		}
		if err := grow(n.left, depth-1); err != nil {
			return err
		}
		return grow(n.right, depth-1)
	}
	if err := grow(t.root, b); err != nil {
		return nil, err
	}
	// Construction is the baseline population, not churn: start committed.
	t.commitSeq = t.seq
	return t, nil
}

// split turns leaf n into an internal node with two fresh children,
// distributing its hits evenly (remainder to the left child) so total hits
// are conserved.
func (t *Trie) split(n *Node) error {
	if !n.IsLeaf() {
		return fmt.Errorf("trie: split of internal node %v", n.prefix)
	}
	l, err := n.prefix.Left()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoSplit, err)
	}
	r, err := n.prefix.Right()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoSplit, err)
	}
	half := n.hits / 2
	n.left = &Node{prefix: l, hits: n.hits - half}
	n.right = &Node{prefix: r, hits: half}
	n.hits = 0
	t.leaves++
	t.seq++
	return nil
}

// merge collapses an internal node whose children are both leaves back into a
// leaf carrying the combined hits.
func (t *Trie) merge(n *Node) error {
	if n.IsLeaf() || !n.left.IsLeaf() || !n.right.IsLeaf() {
		return fmt.Errorf("%w: node %v", ErrNoMerge, n.prefix)
	}
	n.hits = n.left.hits + n.right.hits
	n.left, n.right = nil, nil
	t.leaves--
	t.seq++
	return nil
}

// Width returns the operand width in bits.
func (t *Trie) Width() int { return t.width }

// NumLeaves returns the current bin count (monitoring TCAM entries in use).
func (t *Trie) NumLeaves() int { return t.leaves }

// Root returns the root node for read-only traversal.
func (t *Trie) Root() *Node { return t.root }

// Depth returns the maximum leaf depth (significant bits of the deepest bin).
func (t *Trie) Depth() int {
	depth := 0
	t.walkLeaves(func(n *Node) {
		if n.prefix.Bits() > depth {
			depth = n.prefix.Bits()
		}
	})
	return depth
}

// walkLeaves visits leaves in order of ascending operand value.
func (t *Trie) walkLeaves(f func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.IsLeaf() {
			f(n)
			return
		}
		rec(n.left)
		rec(n.right)
	}
	rec(t.root)
}

// Leaves returns the bins in ascending value order. This is the in-order
// traversal Algorithm 2 returns to generate monitoring TCAM entries.
func (t *Trie) Leaves() []Bin {
	out := make([]Bin, 0, t.leaves)
	t.walkLeaves(func(n *Node) {
		out = append(out, Bin{Prefix: n.prefix, Hits: n.hits})
	})
	return out
}

// Record finds the bin containing v and increments its hit count, emulating
// the data-plane match-and-increment path. Values are masked to the operand
// width.
func (t *Trie) Record(v uint64) {
	if t.width < 64 {
		v &= (uint64(1) << uint(t.width)) - 1
	}
	n := t.root
	for !n.IsLeaf() {
		if n.left.prefix.Contains(v) {
			n = n.left
		} else {
			n = n.right
		}
	}
	n.hits++
	t.seq++
}

// RecordAll records every value in vs.
func (t *Trie) RecordAll(vs []uint64) {
	for _, v := range vs {
		t.Record(v)
	}
}

// SetLeafHits overwrites leaf hit counts from a register snapshot, in leaf
// order. This is how the control plane loads data-plane registers into the
// trie before an Algorithm 2 round.
func (t *Trie) SetLeafHits(hits []uint64) error {
	if len(hits) != t.leaves {
		return fmt.Errorf("%w: got %d, trie has %d leaves", ErrLeafCount, len(hits), t.leaves)
	}
	i := 0
	t.walkLeaves(func(n *Node) {
		if n.hits != hits[i] {
			n.hits = hits[i]
			t.seq++
		}
		i++
	})
	return nil
}

// AddLeafHits accumulates a register snapshot into the leaf hit counts.
func (t *Trie) AddLeafHits(hits []uint64) error {
	if len(hits) != t.leaves {
		return fmt.Errorf("%w: got %d, trie has %d leaves", ErrLeafCount, len(hits), t.leaves)
	}
	i := 0
	t.walkLeaves(func(n *Node) {
		if hits[i] != 0 {
			n.hits += hits[i]
			t.seq++
		}
		i++
	})
	return nil
}

// ResetHits zeroes every leaf counter (the per-round register reset).
func (t *Trie) ResetHits() {
	t.walkLeaves(func(n *Node) {
		if n.hits != 0 {
			n.hits = 0
			t.seq++
		}
	})
}

// DecayHits halves every leaf counter; the EWMA ablation of the paper's
// reset-per-round policy.
func (t *Trie) DecayHits() {
	t.walkLeaves(func(n *Node) {
		if n.hits != 0 {
			n.hits /= 2
			t.seq++
		}
	})
}

// TotalHits returns the sum of all leaf hits.
func (t *Trie) TotalHits() uint64 {
	var sum uint64
	t.walkLeaves(func(n *Node) { sum += n.hits })
	return sum
}

// MaxLeaf returns the hottest bin, preferring (on ties) the first in value
// order.
func (t *Trie) MaxLeaf() Bin {
	var best *Node
	t.walkLeaves(func(n *Node) {
		if best == nil || n.hits > best.hits {
			best = n
		}
	})
	return Bin{Prefix: best.prefix, Hits: best.hits}
}

// MinLeaf returns the coldest bin.
func (t *Trie) MinLeaf() Bin {
	var best *Node
	t.walkLeaves(func(n *Node) {
		if best == nil || n.hits < best.hits {
			best = n
		}
	})
	return Bin{Prefix: best.prefix, Hits: best.hits}
}

// Imbalance returns (max − min) / max over leaf hits, the quantity Algorithm
// 2 compares against th_balance (line 16). It returns 0 when the trie has no
// hits.
func (t *Trie) Imbalance() float64 {
	maxH, minH := t.MaxLeaf().Hits, t.MinLeaf().Hits
	if maxH == 0 {
		return 0
	}
	return float64(maxH-minH) / float64(maxH)
}

// maxSplittableLeaf returns the hottest leaf that still has wildcard bits, or
// nil when every leaf is fully specified.
func (t *Trie) maxSplittableLeaf() *Node {
	var best *Node
	t.walkLeaves(func(n *Node) {
		if n.prefix.Bits() >= t.width {
			return
		}
		if best == nil || n.hits > best.hits {
			best = n
		}
	})
	return best
}

// minMergeableParent returns the internal node with two leaf children whose
// combined hits are minimal, excluding the given node (the imminent split
// target must survive the merge). Returns nil when no such pair exists.
func (t *Trie) minMergeableParent(exclude *Node) *Node {
	var best *Node
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		if n.left.IsLeaf() && n.right.IsLeaf() && n.left != exclude && n.right != exclude {
			if best == nil || n.left.hits+n.right.hits < best.left.hits+best.right.hits {
				best = n
			}
		}
		rec(n.left)
		rec(n.right)
	}
	rec(t.root)
	return best
}

// Rebalance runs one Algorithm 2 balancing step: if the hit imbalance is at
// least thBalance (the paper uses 0.20), merge the coldest sibling leaf pair
// and split the hottest leaf, keeping the bin count constant. It reports
// whether the trie changed.
func (t *Trie) Rebalance(thBalance float64) bool {
	if t.Imbalance() < thBalance {
		return false
	}
	hot := t.maxSplittableLeaf()
	if hot == nil {
		return false
	}
	cold := t.minMergeableParent(hot)
	if cold == nil {
		// Cannot keep the count fixed; skip rather than grow implicitly.
		return false
	}
	// Merging before splitting matches Algorithm 2's order
	// (removeLowHitNode then devideHighHitNode).
	if err := t.merge(cold); err != nil {
		return false
	}
	if err := t.split(hot); err != nil {
		return false
	}
	return true
}

// Expand splits the hottest leaf without merging, growing the monitoring
// footprint by one entry. The controller invokes this when the trie depth
// keeps increasing (th_expansion, §III-B2), signalling a skewed distribution
// that deserves a bigger monitoring TCAM. It reports whether a split
// happened.
func (t *Trie) Expand() bool {
	hot := t.maxSplittableLeaf()
	if hot == nil {
		return false
	}
	return t.split(hot) == nil
}

// Clone returns a deep copy, including the change and commit sequences, so
// the shadow-trie round workflow (clone → mutate → populate → commit) keeps
// the memo keys of the trie it copies.
func (t *Trie) Clone() *Trie {
	var copyNode func(n *Node) *Node
	copyNode = func(n *Node) *Node {
		if n == nil {
			return nil
		}
		return &Node{prefix: n.prefix, hits: n.hits, left: copyNode(n.left), right: copyNode(n.right)}
	}
	c := &Trie{
		width:     t.width,
		root:      copyNode(t.root),
		leaves:    t.leaves,
		seq:       t.seq,
		gen:       t.gen,
		commitSeq: t.commitSeq,
	}
	return c
}

// ChangeSeq returns the monotonic mutation sequence: it advances on every
// change to leaf shape or mass and never goes backward, so two observations
// with equal ChangeSeq saw identical trie content.
func (t *Trie) ChangeSeq() uint64 { return t.seq }

// Generation returns the number of CommitGeneration calls.
func (t *Trie) Generation() uint64 { return t.gen }

// CommittedSeq returns the value ChangeSeq had at the last CommitGeneration.
func (t *Trie) CommittedSeq() uint64 { return t.commitSeq }

// CommitGeneration marks the current trie content as installed in the data
// plane: the generation advances and the committed sequence catches up to
// ChangeSeq. The controller calls this after a round's
// populate step succeeds. It returns the new generation.
func (t *Trie) CommitGeneration() uint64 {
	t.gen++
	t.commitSeq = t.seq
	return t.gen
}

// AggregateHits propagates leaf hits upward so every internal node holds its
// subtree total (Algorithm 3's updateFreq) and returns the grand total.
func (t *Trie) AggregateHits() uint64 {
	var rec func(n *Node) uint64
	rec = func(n *Node) uint64 {
		if n.IsLeaf() {
			return n.hits
		}
		n.hits = rec(n.left) + rec(n.right)
		return n.hits
	}
	return rec(t.root)
}

// Validate checks structural invariants: the leaves partition the operand
// domain and the cached leaf count is correct. It is used by tests and
// failure-injection paths.
func (t *Trie) Validate() error {
	bins := t.Leaves()
	if len(bins) != t.leaves {
		return fmt.Errorf("trie: cached leaf count %d, actual %d", t.leaves, len(bins))
	}
	ps := make([]bitstr.Prefix, len(bins))
	for i, b := range bins {
		ps[i] = b.Prefix
	}
	if !bitstr.Partition(ps) {
		return fmt.Errorf("trie: leaves do not partition the %d-bit domain", t.width)
	}
	return nil
}

// String renders the bins compactly, e.g. "00x:5 010:7 011:7 1xx:3".
func (t *Trie) String() string {
	var b strings.Builder
	for i, bin := range t.Leaves() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", bin.Prefix, bin.Hits)
	}
	return b.String()
}
