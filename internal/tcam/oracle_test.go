package tcam_test

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/tcam/tcamtest"
)

// widthMask returns a mask with the low w bits set.
func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(w) - 1
}

// fuzzBytes hands out fuzz input bytes as table-shape decisions, yielding
// zeros once the input runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func (b *fuzzBytes) intn(n int) int { return b.next() % n }

// bits draws a w-bit value from the input.
func (b *fuzzBytes) bits(w int) uint64 {
	var v uint64
	for i := 0; i < w; i += 8 {
		v |= uint64(b.next()) << uint(i)
	}
	return v & widthMask(w)
}

// probeRNG seeds the probe keys of one fuzz input from its bytes, so a
// failing input replays the same probes.
func probeRNG(data []byte) *rand.Rand {
	h := fnv.New64a()
	h.Write(data)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// checkOracle resolves every tuple packed in flat through LookupIndexBatch
// and Lookup and fails unless both agree with the tcamtest oracle over the
// table's entries: the ordinal equals the oracle's position, Lookup returns
// the same entry, and an integral payload resolves to its action data.
func checkOracle(t *testing.T, tb *tcam.Table, flat []uint64) {
	t.Helper()
	arity := len(tb.FieldWidths())
	entries := tb.Entries()
	ords, pay := tb.LookupIndexBatch(flat, nil)
	if n := len(flat) / arity; len(ords) != n {
		t.Fatalf("LookupIndexBatch returned %d ordinals for %d tuples", len(ords), n)
	}
	for i, ord := range ords {
		key := flat[i*arity : (i+1)*arity]
		want := tcamtest.Winner(entries, key...)
		if int(ord) != want {
			t.Fatalf("key %#x: ordinal %d, oracle %d", key, ord, want)
		}
		e, ok := tb.Lookup(key...)
		if ok != (want >= 0) || ok && e.ID != entries[want].ID {
			t.Fatalf("key %#x: Lookup (%v, %v), oracle %d", key, e, ok, want)
		}
		if want < 0 {
			continue
		}
		if d, integral := entries[want].Data.(uint64); integral {
			if v, vok := pay.Value(ord); !vok || v != d {
				t.Fatalf("key %#x: Value (%d, %v), want (%d, true)", key, v, vok, d)
			}
		}
	}
}

// randomPrefixTable builds a table with n random prefix entries over the
// given field widths (one prefix per field), random priorities.
func randomPrefixTable(t testing.TB, rng *rand.Rand, n int, widths ...int) *tcam.Table {
	t.Helper()
	tb := tcam.MustNew("fuzz", 0, widths...)
	for i := 0; i < n; i++ {
		fields := make([]tcam.Field, len(widths))
		for f, w := range widths {
			p, err := bitstr.New(rng.Uint64()&widthMask(w), rng.Intn(w+1), w)
			if err != nil {
				t.Fatal(err)
			}
			fields[f] = tcam.FieldFromPrefix(p)
		}
		if _, err := tb.Insert(fields, rng.Intn(4), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// randomKeys packs n random tuples over widths.
func randomKeys(rng *rand.Rand, n int, widths ...int) []uint64 {
	flat := make([]uint64, n*len(widths))
	for i := range flat {
		flat[i] = rng.Uint64() & widthMask(widths[i%len(widths)])
	}
	return flat
}

// TestIndexDifferentialSingleField proves the compiled index resolves
// bit-identically to the oracle on ≥10k random keys across random
// single-field tables (the acceptance-criteria differential).
func TestIndexDifferentialSingleField(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keysChecked := 0
	for trial := 0; trial < 40; trial++ {
		width := 1 + rng.Intn(32)
		tb := randomPrefixTable(t, rng, 1+rng.Intn(200), width)
		checkOracle(t, tb, randomKeys(rng, 300, width))
		keysChecked += 300
	}
	if keysChecked < 10000 {
		t.Fatalf("differential covered only %d keys, want >= 10000", keysChecked)
	}
}

// TestIndexDifferentialMultiField runs the same differential over two- and
// three-field tables, where LPM winners combine per-field significant bits.
func TestIndexDifferentialMultiField(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		widths := make([]int, 2+rng.Intn(2))
		for i := range widths {
			widths[i] = 1 + rng.Intn(12)
		}
		tb := randomPrefixTable(t, rng, 1+rng.Intn(150), widths...)
		checkOracle(t, tb, randomKeys(rng, 400, widths...))
	}
}

// TestIndexFallbackNonPrefixMask: entries with non-contiguous ternary masks
// cannot be trie-compiled; the index must fall back to the resolution-order
// scan and still agree with the oracle.
func TestIndexFallbackNonPrefixMask(t *testing.T) {
	tb := tcam.MustNew("ternary", 0, 8)
	// Match any key whose bit 2 is set, regardless of other bits.
	if _, err := tb.Insert([]tcam.Field{{Value: 0b100, Mask: 0b100}}, 0, "bit2"); err != nil {
		t.Fatal(err)
	}
	// And a proper prefix entry that outranks it on significant bits.
	if _, err := tb.InsertPrefix(bitstr.MustNew(0b10000000, 4, 8), 0, "prefix"); err != nil {
		t.Fatal(err)
	}
	if kind, _, _ := tcam.CompiledForm(tb); kind != "linear" {
		t.Fatalf("non-prefix mask compiled to %q, want linear", kind)
	}
	flat := make([]uint64, 256)
	for i := range flat {
		flat[i] = uint64(i)
	}
	checkOracle(t, tb, flat)
}

// TestLookupIndexBatchDifferentialFuzz proves the ordinal path and the entry
// path bit-identical to the oracle across random one- and two-field tables
// — overlapping and disjoint prefixes, narrow (dense-LUT) and wide
// (range-searched) fields alike.
func TestLookupIndexBatchDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		widths := make([]int, 1+rng.Intn(2))
		for i := range widths {
			widths[i] = 1 + rng.Intn(28) // spans both rangeSet forms
		}
		tb := randomPrefixTable(t, rng, 1+rng.Intn(150), widths...)
		checkOracle(t, tb, randomKeys(rng, 300, widths...))
	}
}

// TestLookupIndexBatchProductGrid covers the two-field product compilation
// the joint binary populations hit: disjoint X and Y tilings crossed into
// pair entries, with some pairs deliberately absent (grid holes must miss).
func TestLookupIndexBatchProductGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const wx, wy, dx, dy = 10, 8, 3, 2
	tb := tcam.MustNew("product", 0, wx, wy)
	for i, fx := range tiling(wx, dx) {
		for j, fy := range tiling(wy, dy) {
			if i == 2 && j == 1 {
				continue // hole: this prefix pair has no entry
			}
			if _, err := tb.Insert([]tcam.Field{fx, fy}, 0, uint64(tb.Len())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if kind, _, _ := tcam.CompiledForm(tb); kind != "grid" {
		t.Fatalf("product table compiled to %q, want grid", kind)
	}
	hx, hy := uint64(2)<<uint(wx-dx), uint64(1)<<uint(wy-dy)
	checkOracle(t, tb, append(randomKeys(rng, 500, wx, wy), hx, hy))
	if _, ok := tb.Lookup(hx, hy); ok {
		t.Fatal("grid hole resolved an entry")
	}
}

// TestRangeSetRejectsOverlapSingleField: nested single-field prefixes must
// keep the trie (LPM semantics) and still agree with the oracle.
func TestRangeSetRejectsOverlapSingleField(t *testing.T) {
	tb := tcam.MustNew("overlap", 0, 8)
	if _, err := tb.InsertPrefix(bitstr.MustNew(0x80, 1, 8), 0, uint64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(bitstr.MustNew(0xC0, 2, 8), 0, uint64(2)); err != nil {
		t.Fatal(err)
	}
	if kind, _, _ := tcam.CompiledForm(tb); kind != "trie" {
		t.Fatalf("overlapping prefixes compiled to %q, want trie", kind)
	}
	flat := make([]uint64, 256)
	for i := range flat {
		flat[i] = uint64(i)
	}
	checkOracle(t, tb, flat)
}

// TestGridRejectsNestedPrefixes: a two-field table whose X prefixes nest
// must refuse the grid compilation and fall back to the trie, still
// resolving identically to the oracle.
func TestGridRejectsNestedPrefixes(t *testing.T) {
	tb := tcam.MustNew("nested", 0, 8, 8)
	px1 := bitstr.MustNew(0x80, 1, 8) // 1xxxxxxx
	px2 := bitstr.MustNew(0xC0, 2, 8) // 11xxxxxx — nested in px1
	py := bitstr.MustNew(0x00, 1, 8)
	for i, px := range []bitstr.Prefix{px1, px2} {
		if _, err := tb.Insert([]tcam.Field{tcam.FieldFromPrefix(px), tcam.FieldFromPrefix(py)}, 0, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if kind, _, _ := tcam.CompiledForm(tb); kind != "trie" {
		t.Fatalf("nested X prefixes compiled to %q, want trie", kind)
	}
	flat := make([]uint64, 0, 512)
	for key := uint64(0); key < 256; key++ {
		flat = append(flat, key, 0x01)
	}
	checkOracle(t, tb, flat)
}

// TestLookupHighBitsIgnored pins the masking contract: key bits above the
// field width are ignored identically by the oracle, the dense LUT, and the
// wide-field range search.
func TestLookupHighBitsIgnored(t *testing.T) {
	for _, width := range []int{8, 20} { // LUT form and range form
		tb := tcam.MustNew("tile", 0, width)
		for i, f := range tiling(width, 3) {
			if _, err := tb.Insert([]tcam.Field{f}, 0, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		flat := make([]uint64, 64)
		for probe := range flat {
			low := uint64(probe) << uint(width-6)
			flat[probe] = low | (uint64(probe+1) << uint(width)) // garbage above width
		}
		entries := tb.Entries()
		for _, k := range flat {
			if tcamtest.Winner(entries, k) < 0 {
				t.Fatalf("width %d key %#x: the oracle missed a full cover", width, k)
			}
		}
		checkOracle(t, tb, flat)
	}
}

// FuzzIndexOracle builds random one- and two-field tables and checks every
// LookupIndexBatch ordinal and every Lookup winner against the tcamtest
// oracle. The input picks each field's width (up to 16 bits compiles a
// range set to the dense LUT, wider to the predecessor-searched range
// array) and one table shape:
//
//   - a disjoint tiling of every field with holes: the range set on one
//     field, the product grid on two;
//   - random prefixes, which usually nest and overlap: the trie;
//   - random ternary masks with wildcard bits above significant ones: the
//     linear fallback.
//
// Duplicate match keys at random priorities go on top, which turns a tiled
// single field into a trie and leaves a grid cell for the first writer to
// win. Probe keys mix random keys with keys inside installed entries, some
// carry bits above the field widths, and single-field batches are sorted
// half the time (the range array's ascending sweep).
func FuzzIndexOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		widths := make([]int, 1+in.intn(2))
		for i := range widths {
			widths[i] = 1 + in.intn(24)
		}
		tb := tcam.MustNew("oracle", 0, widths...)
		insert := func(fields []tcam.Field) {
			if _, err := tb.Insert(fields, in.intn(4), uint64(tb.Len())); err != nil {
				t.Fatal(err)
			}
		}
		prefix := func(w, depth int, v uint64) tcam.Field {
			return tcam.FieldFromPrefix(bitstr.MustNew((v<<uint(w-depth))&widthMask(w), depth, w))
		}
		switch shape := in.intn(3); shape {
		case 0: // disjoint tiling of every field, holes where the input says
			depths := make([]int, len(widths))
			cells := 1
			for i, w := range widths {
				depths[i] = in.intn(min(w, 5) + 1)
				cells <<= depths[i]
			}
			for c := 0; c < cells; c++ {
				if in.intn(8) == 0 {
					continue
				}
				fields := make([]tcam.Field, len(widths))
				rest := c
				for i, w := range widths {
					fields[i] = prefix(w, depths[i], uint64(rest&(1<<depths[i]-1)))
					rest >>= depths[i]
				}
				insert(fields)
			}
		case 1, 2: // random prefixes, or random non-prefix masks
			for n := 1 + in.intn(24); n > 0; n-- {
				fields := make([]tcam.Field, len(widths))
				for i, w := range widths {
					if shape == 1 {
						fields[i] = prefix(w, in.intn(w+1), in.bits(w))
					} else {
						m := in.bits(w)
						fields[i] = tcam.Field{Value: in.bits(w) & m, Mask: m}
					}
				}
				insert(fields)
			}
		}
		if live := tb.Entries(); len(live) > 0 {
			for n := in.intn(4); n > 0; n-- {
				insert(live[in.intn(len(live))].Fields)
			}
		}

		rng := probeRNG(data)
		live := tb.Entries()
		const probes = 256
		flat := make([]uint64, 0, len(widths)*probes)
		for p := 0; p < probes; p++ {
			var inside *tcam.Entry
			if len(live) > 0 && rng.Intn(2) == 0 {
				inside = live[rng.Intn(len(live))]
			}
			garbage := rng.Intn(8) == 0
			for i, w := range widths {
				k := rng.Uint64() & widthMask(w)
				if inside != nil {
					fd := inside.Fields[i]
					k = fd.Value | k&^fd.Mask
				}
				if garbage {
					k |= rng.Uint64() << uint(w)
				}
				flat = append(flat, k)
			}
		}
		if len(widths) == 1 && in.intn(2) == 0 {
			slices.Sort(flat)
		}
		checkOracle(t, tb, flat)
	})
}
