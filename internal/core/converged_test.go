package core

import (
	"testing"

	"github.com/ada-repro/ada/internal/arith"
)

// TestConvergedRoundLeavesDataPlaneAlone pins what a converged control
// round costs the data plane: nothing. Two unary tenants and one binary
// tenant share one physical table and see the same operands every round.
// Once their allocations settle, a round rereads the registers (so the
// tries' change sequences move) but must not commit: the shared table's
// generation and snapshot token stay put, and no tenant's lookup cache is
// flushed. A feed that moves the allocation must still advance all three.
func TestConvergedRoundLeavesDataPlaneAlone(t *testing.T) {
	reg, err := NewRegistry(testSharedConfig(192, 0)) // static quotas
	if err != nil {
		t.Fatal(err)
	}
	cfg := testTenantConfig(48)
	cfg.LookupCacheEntries = 256
	sq, err := reg.MountUnary("square", cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := reg.MountUnary("recip", cfg, arith.OpRecip)
	if err != nil {
		t.Fatal(err)
	}
	mul, err := reg.MountBinary("mul", cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}

	// Stationary traffic: the same operands, spread evenly over the 16-bit
	// domain, so every monitoring bin sees the same count and Algorithm 2
	// never reshapes. Rounds alternate between feeding the set once and
	// twice: the register counts (and the tries' change sequences) move
	// every round, the distribution — and so the allocation — does not.
	spread := func(lo, step uint64, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = lo + uint64(i)*step
		}
		return xs
	}
	var scs [3]arith.Scratch
	var dst []uint64
	feed := func(xs, ys []uint64) {
		dst, _ = sq.Unary().ObserveEvalAll(dst, xs, &scs[0])
		dst, _ = rc.Unary().ObserveEvalAll(dst, ys, &scs[1])
		dst, _ = mul.Binary().ObserveEvalAll(dst, xs, ys, &scs[2])
	}
	type state struct {
		gen, token uint64
		inv        [3]uint64
	}
	observe := func() state {
		_, token := reg.Table().LookupSnapshot()
		s := state{gen: reg.Table().Generation(), token: token}
		for i := range scs {
			s.inv[i] = scs[i].CacheStats().Invalidations
		}
		return s
	}
	rounds := 0
	round := func(xs, ys []uint64) state {
		t.Helper()
		rounds++
		for i := 0; i <= rounds%2; i++ {
			feed(xs, ys)
		}
		if _, err := reg.Sync(); err != nil {
			t.Fatal(err)
		}
		feed(xs, ys) // the lookups after the round see its commit, if any
		return observe()
	}

	xs, ys := spread(1, 64, 1024), spread(7, 64, 1024)
	for i := 0; i < 6; i++ {
		round(xs, ys)
	}
	settled := observe()
	seq := sq.Unary().Controller().Trie().ChangeSeq()
	for i := 0; i < 10; i++ {
		if got := round(xs, ys); got != settled {
			t.Fatalf("converged round %d touched the data plane: %+v, settled %+v", i, got, settled)
		}
	}
	if seq == sq.Unary().Controller().Trie().ChangeSeq() {
		t.Fatal("converged rounds did not reread the registers; the test checks nothing")
	}

	// A hot spot moves every tenant's allocation: the rounds must commit.
	hot := spread(30000, 1, 1024)
	var moved state
	for i := 0; i < 4; i++ {
		moved = round(hot, hot)
	}
	if moved.gen == settled.gen || moved.token == settled.token {
		t.Fatalf("moving feed did not commit: %+v, settled %+v", moved, settled)
	}
	for i := range moved.inv {
		if moved.inv[i] == settled.inv[i] {
			t.Errorf("tenant %d's lookup cache was never invalidated by a moving feed", i)
		}
	}
}
