package population

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// massWithin is the reference mass oracle: a float scan over every leaf,
// spreading each leaf's hits uniformly over its interval. massIndex must
// agree with it bit for bit.
func massWithin(leaves []trie.Bin, p bitstr.Prefix) float64 {
	mass := 0.0
	for _, l := range leaves {
		if l.Hits == 0 || !l.Prefix.Overlaps(p) {
			continue
		}
		switch {
		case p.ContainsPrefix(l.Prefix):
			mass += float64(l.Hits)
		case l.Prefix.ContainsPrefix(p):
			// Fraction of the leaf covered by p: 2^-(bits difference).
			frac := math.Exp2(float64(l.Prefix.Bits() - p.Bits()))
			mass += float64(l.Hits) * frac
		}
	}
	return mass
}

// randomMassTrie grows a width-bit trie to a random shape (Algorithm 1,
// then expansions and rebalances) and loads random hits, about a third of
// them zero.
func randomMassTrie(t testing.TB, rng *rand.Rand, width int) *trie.Trie {
	t.Helper()
	tr, err := trie.NewInitial(1<<rng.Intn(6), width)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		hits := make([]uint64, tr.NumLeaves())
		for j := range hits {
			if rng.Intn(3) != 0 {
				hits[j] = uint64(rng.Intn(1 + 5000/(1+j)))
			}
		}
		if err := tr.SetLeafHits(hits); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			tr.Expand()
		} else {
			tr.Rebalance(0.2)
		}
	}
	hits := make([]uint64, tr.NumLeaves())
	for j := range hits {
		if rng.Intn(3) != 0 {
			hits[j] = rng.Uint64() >> (12 + rng.Intn(52)) // keep totals below 2^53
		}
	}
	if err := tr.SetLeafHits(hits); err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkMassOracle compares massIndex with massWithin on the root, every
// leaf, a prefix inside each leaf, each leaf's ancestors (which span many
// leaves), and random prefixes.
func checkMassOracle(t testing.TB, rng *rand.Rand, tr *trie.Trie) {
	t.Helper()
	leaves := tr.Leaves()
	idx := newMassIndex(leaves)
	check := func(p bitstr.Prefix) {
		t.Helper()
		got, want := idx.mass(p), massWithin(leaves, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mass(%v) = %v (%#x), massWithin = %v (%#x)",
				p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	root, err := bitstr.Root(tr.Width())
	if err != nil {
		t.Fatal(err)
	}
	check(root)
	for _, l := range leaves {
		check(l.Prefix)
		if l.Prefix.WildBits() > 0 {
			extra := 1 + rng.Intn(l.Prefix.WildBits())
			v := l.Prefix.Lo() | (rng.Uint64() & (l.Prefix.Hi() - l.Prefix.Lo()))
			check(bitstr.MustNew(v, l.Prefix.Bits()+extra, tr.Width()))
		}
		for p := l.Prefix; p.Bits() > 0; {
			if p, err = p.Parent(); err != nil {
				t.Fatal(err)
			}
			check(p)
		}
	}
	for i := 0; i < 64; i++ {
		bits := rng.Intn(tr.Width() + 1)
		check(bitstr.MustNew(rng.Uint64()&root.Hi(), bits, tr.Width()))
	}
}

// TestMassIndexMatchesMassWithin is the table form of the differential:
// random trie shapes at widths from 1 to 64 bits, plus the all-zero trie.
func TestMassIndexMatchesMassWithin(t *testing.T) {
	for _, width := range []int{1, 3, 8, 16, 33, 64} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(width)))
			checkMassOracle(t, rng, randomMassTrie(t, rng, width))
		}
		tr, err := trie.NewInitial(16, width)
		if err != nil {
			t.Fatal(err)
		}
		checkMassOracle(t, rand.New(rand.NewSource(1)), tr)
	}
}

// FuzzMassOracle drives the same differential from fuzzed seeds and widths.
func FuzzMassOracle(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(7), uint8(64))
	f.Add(int64(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, w uint8) {
		width := 1 + int(w)%64
		rng := rand.New(rand.NewSource(seed))
		checkMassOracle(t, rng, randomMassTrie(t, rng, width))
	})
}
