package trie

import (
	"testing"
)

func mustTrie(t *testing.T, m, width int) *Trie {
	t.Helper()
	tr, err := NewInitial(m, width)
	if err != nil {
		t.Fatalf("NewInitial(%d, %d): %v", m, width, err)
	}
	return tr
}

// wantSeqStep fails unless ChangeSeq advanced by exactly want since before.
func wantSeqStep(t *testing.T, tr *Trie, before uint64, want uint64, what string) {
	t.Helper()
	if got := tr.ChangeSeq() - before; got != want {
		t.Fatalf("%s advanced ChangeSeq by %d, want %d", what, got, want)
	}
}

func TestNewInitialStartsClean(t *testing.T) {
	tr := mustTrie(t, 8, 8)
	if tr.ChangeSeq() != tr.CommittedSeq() {
		t.Fatalf("fresh trie ChangeSeq %d != CommittedSeq %d", tr.ChangeSeq(), tr.CommittedSeq())
	}
	if tr.Generation() != 0 {
		t.Fatalf("fresh trie Generation = %d, want 0", tr.Generation())
	}
}

func TestSetLeafHitsMarksOnlyChanges(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	base := []uint64{10, 20, 30, 40}
	seq := tr.ChangeSeq()
	if err := tr.SetLeafHits(base); err != nil {
		t.Fatal(err)
	}
	wantSeqStep(t, tr, seq, 4, "first SetLeafHits")
	tr.CommitGeneration()

	// Identical snapshot: nothing changes.
	seq = tr.ChangeSeq()
	if err := tr.SetLeafHits(base); err != nil {
		t.Fatal(err)
	}
	wantSeqStep(t, tr, seq, 0, "identical SetLeafHits")

	// One leaf changes: one step.
	if err := tr.SetLeafHits([]uint64{10, 21, 30, 40}); err != nil {
		t.Fatal(err)
	}
	wantSeqStep(t, tr, seq, 1, "single-leaf SetLeafHits")
	if got := tr.Leaves()[1].Hits; got != 21 {
		t.Fatalf("second leaf holds %d hits, want 21", got)
	}
}

func TestAddResetDecayMarkOnlyChanges(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	seq := tr.ChangeSeq()
	if err := tr.AddLeafHits([]uint64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	wantSeqStep(t, tr, seq, 0, "zero AddLeafHits")
	if err := tr.AddLeafHits([]uint64{0, 5, 0, 7}); err != nil {
		t.Fatal(err)
	}
	wantSeqStep(t, tr, seq, 2, "AddLeafHits")

	seq = tr.ChangeSeq()
	tr.DecayHits() // 0, 2, 0, 3 — only nonzero leaves change
	wantSeqStep(t, tr, seq, 2, "DecayHits")

	seq = tr.ChangeSeq()
	tr.ResetHits()
	wantSeqStep(t, tr, seq, 2, "ResetHits")
	seq = tr.ChangeSeq()
	tr.ResetHits() // already zero
	wantSeqStep(t, tr, seq, 0, "ResetHits of a zeroed trie")
}

func TestRecordMarksContainingLeaf(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	seq := tr.ChangeSeq()
	tr.Record(0) // first leaf
	wantSeqStep(t, tr, seq, 1, "Record")
	if got := tr.Leaves()[0].Hits; got != 1 {
		t.Fatalf("first leaf holds %d hits, want 1", got)
	}
}

func TestRebalanceMarksParents(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{100, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	tr.CommitGeneration()
	seq := tr.ChangeSeq()
	if !tr.Rebalance(0.2) {
		t.Fatal("Rebalance did not fire")
	}
	// One merge and one split.
	wantSeqStep(t, tr, seq, 2, "Rebalance")
	if tr.CommittedSeq() != seq {
		t.Fatal("Rebalance moved CommittedSeq")
	}
}

func TestExpandMarksSplitLeaf(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 90}); err != nil {
		t.Fatal(err)
	}
	tr.CommitGeneration()
	hot := tr.MaxLeaf().Prefix
	seq := tr.ChangeSeq()
	if !tr.Expand() {
		t.Fatal("Expand did not fire")
	}
	wantSeqStep(t, tr, seq, 1, "Expand")
	for _, b := range tr.Leaves() {
		if b.Prefix == hot {
			t.Fatalf("Expand left the hot leaf %v unsplit", hot)
		}
	}
}

func TestCloneCarriesDirtyState(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c := tr.Clone()
	if c.ChangeSeq() != tr.ChangeSeq() || c.Generation() != tr.Generation() || c.CommittedSeq() != tr.CommittedSeq() {
		t.Fatal("clone did not carry seq/gen/commitSeq")
	}
	// Mutating or committing the clone must not touch the original.
	seq, committed := tr.ChangeSeq(), tr.CommittedSeq()
	c.Record(0)
	if c.ChangeSeq() == tr.ChangeSeq() {
		t.Fatal("clone mutation did not advance the clone's ChangeSeq")
	}
	c.CommitGeneration()
	if tr.ChangeSeq() != seq || tr.CommittedSeq() != committed || tr.Generation() != 0 {
		t.Fatal("clone mutation or commit reached the original")
	}
}

func TestCommitGenerationClears(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	g := tr.Generation()
	if got := tr.CommitGeneration(); got != g+1 {
		t.Fatalf("CommitGeneration = %d, want %d", got, g+1)
	}
	if tr.ChangeSeq() != tr.CommittedSeq() {
		t.Fatal("CommittedSeq did not catch up to ChangeSeq")
	}
}

func TestAggregateHitsDoesNotDirty(t *testing.T) {
	tr := mustTrie(t, 8, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	tr.CommitGeneration()
	seq := tr.ChangeSeq()
	tr.AggregateHits()
	wantSeqStep(t, tr, seq, 0, "AggregateHits")
}
