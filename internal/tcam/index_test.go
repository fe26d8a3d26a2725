package tcam

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// TestIndexSeesMutations: single-row mutations (insert, delete, clear)
// must invalidate the compiled index even though they do not advance the
// bulk-commit generation, and so must a data-only rewrite.
func TestIndexSeesMutations(t *testing.T) {
	tb := MustNew("mut", 0, 4)
	p := bitstr.MustNew(0b0100, 2, 4)
	id, err := tb.InsertPrefix(p, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := tb.Lookup(5); !ok || e.Data.(string) != "a" {
		t.Fatalf("after insert: %v", e)
	}
	if _, err := tb.ApplyDelta([]Row{RowFromPrefix(p, "b")}, nil); err != nil {
		t.Fatal(err)
	}
	if e, ok := tb.Lookup(5); !ok || e.Data.(string) != "b" {
		t.Fatalf("after update: %v", e)
	}
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("lookup hit after delete")
	}
	tb.Clear()
	if _, err := tb.InsertPrefix(p, 0, "c"); err != nil {
		t.Fatal(err)
	}
	if e, ok := tb.Lookup(5); !ok || e.Data.(string) != "c" {
		t.Fatalf("after clear+insert: %v", e)
	}
}

// generationRows builds a full 2-bit-domain population whose every entry
// carries the tag, so any lookup reveals which generation served it.
func generationRows(t *testing.T, tag int) []Row {
	t.Helper()
	var rows []Row
	// Alternate the population shape per tag parity so commits genuinely
	// reshape the table rather than only rewriting action data.
	if tag%2 == 0 {
		for v := uint64(0); v < 4; v++ {
			p, err := bitstr.New(v<<2, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, RowFromPrefix(p, tag))
		}
	} else {
		for v := uint64(0); v < 2; v++ {
			p, err := bitstr.New(v<<3, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, RowFromPrefix(p, tag))
		}
	}
	return rows
}

// TestIndexNoTornGeneration hammers lock-free Lookup/LookupIndexBatch against
// ApplyRowsAtomic/ReplaceAll commits. Every committed population tags all
// of its rows with one generation number; a batch resolved against a single
// snapshot must never mix tags, and no lookup may miss (every population
// covers the domain). Run under -race this also proves the read path is
// data-race free against the commit path.
func TestIndexNoTornGeneration(t *testing.T) {
	tb := MustNew("torn", 0, 4)
	if _, err := tb.ApplyRowsAtomic(generationRows(t, 0)); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		rounds  = 400
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]uint64, 8)
			var ords []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					keys[i] = rng.Uint64() & 0xF
				}
				var pay Payloads
				ords, pay = tb.LookupIndexBatch(keys, ords)
				tag := -1
				for i, ord := range ords {
					e := pay.Entry(ord)
					if e == nil {
						select {
						case errs <- "lookup miss mid-commit (torn or empty generation)":
						default:
						}
						return
					}
					if i == 0 {
						tag = e.Data.(int)
					} else if e.Data.(int) != tag {
						select {
						case errs <- "one batch served two generations":
						default:
						}
						return
					}
				}
				if e, ok := tb.Lookup(rng.Uint64() & 0xF); !ok || e == nil {
					select {
					case errs <- "single lookup missed a fully covered domain":
					default:
					}
					return
				}
			}
		}(int64(r))
	}

	for tag := 1; tag <= rounds; tag++ {
		rows := generationRows(t, tag)
		var err error
		if tag%2 == 0 {
			_, err = tb.ApplyRowsAtomic(rows)
		} else {
			_, err = tb.ReplaceAll(rows)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestLookupBatchStats: batch lookups account hits and misses like the
// scalar path.
func TestLookupBatchStats(t *testing.T) {
	tb := MustNew("stats", 0, 4)
	p := bitstr.MustNew(0b1000, 1, 4) // covers 8..15
	if _, err := tb.InsertPrefix(p, 0, "hi"); err != nil {
		t.Fatal(err)
	}
	tb.ResetStats()
	got := tb.LookupBatch([][]uint64{{9}, {1}, {12}})
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Fatalf("batch results = %v", got)
	}
	s := tb.Stats()
	if s.Lookups != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 lookups / 2 hits / 1 miss", s)
	}

	tb.ResetStats()
	ords, _ := tb.LookupIndexBatch([]uint64{9, 1, 12}, nil)
	if ords[0] < 0 || ords[1] >= 0 || ords[2] < 0 {
		t.Fatalf("index batch ordinals = %v", ords)
	}
	s = tb.Stats()
	if s.Lookups != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("index-batch stats = %+v, want 3 lookups / 2 hits / 1 miss", s)
	}

	// Arity mismatch: every key misses, nothing panics.
	if out := tb.LookupBatch([][]uint64{{1, 2}}); out[0] != nil {
		t.Error("wrong-arity batch key must miss")
	}
}

// TestLookupSnapshotStableAcrossUpdate: an entry returned by Lookup belongs
// to an immutable snapshot — a subsequent data-only rewrite of the installed
// entry must not mutate it under the caller.
func TestLookupSnapshotStableAcrossUpdate(t *testing.T) {
	tb := MustNew("snap", 0, 4)
	p := bitstr.MustNew(0b0100, 2, 4)
	if _, err := tb.InsertPrefix(p, 0, "old"); err != nil {
		t.Fatal(err)
	}
	e, ok := tb.Lookup(5)
	if !ok {
		t.Fatal("miss")
	}
	if _, err := tb.ApplyRowsAtomic([]Row{RowFromPrefix(p, "new")}); err != nil {
		t.Fatal(err)
	}
	if e.Data.(string) != "old" {
		t.Error("held snapshot entry mutated by the rewrite")
	}
	if e2, _ := tb.Lookup(5); e2.Data.(string) != "new" {
		t.Error("fresh lookup does not see the update")
	}
}
