package tcam

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// tileTable installs a disjoint full cover of the width-bit domain with
// 1<<depth leaves, data = leaf index as uint64.
func tileTable(t *testing.T, width, depth int) *Table {
	t.Helper()
	tb := MustNew("tile", 0, width)
	for i := 0; i < 1<<depth; i++ {
		p := bitstr.MustNew(uint64(i)<<uint(width-depth), depth, width)
		if _, err := tb.InsertPrefix(p, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestLookupIndexBatchUntypedData: non-integral action data disables the
// dense payload but the ordinal path must still return the right entries.
func TestLookupIndexBatchUntypedData(t *testing.T) {
	tb := MustNew("untyped", 0, 8)
	for i := 0; i < 4; i++ {
		p := bitstr.MustNew(uint64(i)<<6, 2, 8)
		if _, err := tb.InsertPrefix(p, 0, fmt.Sprintf("bin-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ords, pay := tb.LookupIndexBatch([]uint64{0x00, 0x40, 0x80, 0xC0}, nil)
	if pay.Typed() {
		t.Fatal("string action data reported a typed payload")
	}
	for i, ord := range ords {
		if ord < 0 {
			t.Fatalf("key %d missed a full cover", i)
		}
		if _, ok := pay.Value(ord); ok {
			t.Fatalf("key %d: Value resolved non-integral data", i)
		}
		e := pay.Entry(ord)
		if e == nil || e.Data != fmt.Sprintf("bin-%d", i) {
			t.Fatalf("key %d: entry %v", i, e)
		}
	}
}

// TestLookupSingleBatchTrieMatchesFast cross-checks the replica-only trie
// walk against the fast single-field path (LookupIndexBatch) on a table
// that compiles to the LUT.
func TestLookupSingleBatchTrieMatchesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tb := tileTable(t, 12, 5)
	if ix := tb.loadIndex(); ix.rset == nil || ix.rset.lut == nil {
		t.Fatal("disjoint 12-bit tiling did not compile to the dense LUT")
	}
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = rng.Uint64() & lowMask(12)
	}
	ords, pay := tb.LookupIndexBatch(keys, nil)
	ref := tb.LookupSingleBatchTrie(keys, nil)
	for i := range keys {
		fast := pay.Entry(ords[i])
		if (fast == nil) != (ref[i] == nil) {
			t.Fatalf("key %#x: fast=%v trie=%v", keys[i], fast, ref[i])
		}
		if fast != nil && fast.ID != ref[i].ID {
			t.Fatalf("key %#x: fast winner %d, trie winner %d", keys[i], fast.ID, ref[i].ID)
		}
	}
}

// TestLookupIndexBatchAscending covers the ascending sweep of a wide range
// set: sorted batches with and without garbage above the field width (which
// can make the masked keys descend, forcing restarts), checked key by key
// against Lookup.
func TestLookupIndexBatchAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const width = 20
	tb := tileTable(t, width, 11)
	for _, e := range tb.Entries()[:300] { // holes: these ranges miss
		if err := tb.Delete(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if ix := tb.loadIndex(); ix.rset == nil || ix.rset.lut != nil {
		t.Fatal("wide tiling did not compile to the predecessor-searched range set")
	}
	for _, garbage := range []bool{false, true} {
		flat := make([]uint64, 600)
		for i := range flat {
			flat[i] = rng.Uint64() & lowMask(width)
			if garbage && rng.Intn(4) == 0 {
				flat[i] |= rng.Uint64() << width
			}
		}
		slices.Sort(flat)
		ords, pay := tb.LookupIndexBatch(flat, nil)
		for i, k := range flat {
			want, ok := tb.Lookup(k)
			got := pay.Entry(ords[i])
			if ok != (got != nil) || ok && got.ID != want.ID {
				t.Fatalf("garbage=%v key %#x: ordinal %d entry %v, Lookup (%v, %v)", garbage, k, ords[i], got, want, ok)
			}
		}
	}
}
