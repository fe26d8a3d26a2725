package tcam_test

import (
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/tcam"
)

// keyedIDWidth is the fuzzed tables' field-0 width, the tenant-ID field of
// a default tenant.Partition.
const keyedIDWidth = 8

// FuzzKeyedIndex builds random three-field tables whose field 0 is exact on
// every entry — the shape that compiles to the keyed form — and checks every
// LookupIndexBatch ordinal and every Lookup winner against the tcamtest
// oracle. Each field-0 value gets one partition shape: a disjoint tiling of
// one operand field (the other wildcarded), a product tiling of both,
// all-wildcard entries, or random prefixes that nest and overlap (forcing
// that partition's trie fallback); duplicate match keys at other priorities
// are sprinkled on top. Probe keys mix known and unknown IDs and carry bits
// above every field width.
func FuzzKeyedIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		wx, wy := 1+in.intn(12), 1+in.intn(12)
		widths := [3]int{keyedIDWidth, wx, wy}
		tb := tcam.MustNew("keyed", 0, widths[:]...)
		seq := 0
		insert := func(id uint64, x, y bitstr.Prefix) {
			fields := []tcam.Field{{Value: id, Mask: widthMask(keyedIDWidth)}, tcam.FieldFromPrefix(x), tcam.FieldFromPrefix(y)}
			if _, err := tb.Insert(fields, in.intn(4), uint64(seq)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		prefix := func(w, depth int, v uint64) bitstr.Prefix {
			return bitstr.MustNew((v<<uint(w-depth))&widthMask(w), depth, w)
		}
		random := func(w int) bitstr.Prefix {
			d := in.intn(w + 1)
			return prefix(w, d, uint64(in.next())|uint64(in.next())<<8)
		}
		// tile crosses a depth-dx tiling of x with a depth-dy tiling of y
		// (depth 0 is the wildcard), leaving holes where the input says.
		tile := func(id uint64, dx, dy int) {
			for i := 0; i < 1<<dx; i++ {
				for j := 0; j < 1<<dy; j++ {
					if in.intn(8) == 0 {
						continue
					}
					insert(id, prefix(wx, dx, uint64(i)), prefix(wy, dy, uint64(j)))
				}
			}
		}
		ids := make([]uint64, 1+in.intn(4))
		for i := range ids {
			ids[i] = uint64(in.next())
			switch in.intn(5) {
			case 0: // unary: x tiled, y wildcard
				tile(ids[i], 1+in.intn(min(wx, 5)), 0)
			case 1: // unary over the second operand field: x wildcard
				tile(ids[i], 0, 1+in.intn(min(wy, 5)))
			case 2: // binary product tiling
				tile(ids[i], 1+in.intn(min(wx, 4)), 1+in.intn(min(wy, 3)))
			case 3: // all-wildcard entries
				for n := 1 + in.intn(3); n > 0; n-- {
					insert(ids[i], prefix(wx, 0, 0), prefix(wy, 0, 0))
				}
			case 4: // random, usually nested or overlapping prefixes
				for n := 1 + in.intn(16); n > 0; n-- {
					insert(ids[i], random(wx), random(wy))
				}
			}
		}
		// Duplicate match keys at (possibly) different priorities.
		if live := tb.Entries(); len(live) > 0 {
			for n := in.intn(4); n > 0; n-- {
				e := live[in.intn(len(live))]
				if _, err := tb.Insert(e.Fields, in.intn(4), uint64(seq)); err != nil {
					t.Fatal(err)
				}
				seq++
			}
		}
		if kind, _, _ := tcam.CompiledForm(tb); kind != "keyed" {
			t.Fatalf("exact field-0 table compiled to %q, want keyed", kind)
		}

		rng := probeRNG(data)
		const probes = 256
		flat := make([]uint64, 0, 3*probes)
		for p := 0; p < probes; p++ {
			id := uint64(rng.Intn(256))
			if rng.Intn(4) != 0 {
				id = ids[rng.Intn(len(ids))]
			}
			key := [3]uint64{id, rng.Uint64() & widthMask(wx), rng.Uint64() & widthMask(wy)}
			if rng.Intn(8) == 0 {
				for f, w := range widths {
					key[f] |= rng.Uint64() << uint(w) // bits above the field width
				}
			}
			flat = append(flat, key[:]...)
		}
		checkOracle(t, tb, flat)
	})
}
