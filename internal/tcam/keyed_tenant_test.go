package tcam_test

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/tenant"
)

// sharedEntries is the per-slice population of the mounted partition.
const sharedEntries = 4096

// tiling returns the 2^depth prefix fields tiling a width-bit field.
func tiling(width, depth int) []tcam.Field {
	out := make([]tcam.Field, 1<<depth)
	mask := (uint64(1)<<depth - 1) << uint(width-depth)
	for i := range out {
		out[i] = tcam.Field{Value: uint64(i) << uint(width-depth), Mask: mask}
	}
	return out
}

// mountShared mounts the shape a core.Registry runs: two unary slices and
// one binary slice on one shared partition with 16-bit operand fields, each
// holding sharedEntries rows — the unary slices tile their operand with
// 12-bit prefixes, the binary slice crosses 64 X prefixes with 64 Y
// prefixes. extra reserves quota for slices a test opens later.
func mountShared(tb testing.TB, extra int) (p *tenant.Partition, unaryA, unaryB, binary *tenant.Slice) {
	tb.Helper()
	p, err := tenant.NewPartition(tenant.Config{Name: "shared", TotalEntries: 3*sharedEntries + extra})
	if err != nil {
		tb.Fatal(err)
	}
	open := func(name string, widths []int, rows []tcam.Row) *tenant.Slice {
		s, err := p.Open(name, widths, sharedEntries)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.ApplyRowsAtomic(rows); err != nil {
			tb.Fatal(err)
		}
		return s
	}
	unaryRows := func(seed uint64) []tcam.Row {
		var rows []tcam.Row
		for i, fx := range tiling(16, 12) {
			rows = append(rows, tcam.Row{Fields: []tcam.Field{fx}, Data: seed + uint64(i)})
		}
		return rows
	}
	var binRows []tcam.Row
	for _, fx := range tiling(16, 6) {
		for _, fy := range tiling(16, 6) {
			binRows = append(binRows, tcam.Row{Fields: []tcam.Field{fx, fy}, Data: uint64(len(binRows))})
		}
	}
	unaryA = open("sqrt", []int{16}, unaryRows(0))
	unaryB = open("square", []int{16}, unaryRows(1<<20))
	binary = open("mul", []int{16, 16}, binRows)
	return p, unaryA, unaryB, binary
}

// uniformKeys draws n uniform tenant-local key tuples of the slice's arity.
func uniformKeys(rng *rand.Rand, s *tenant.Slice, n int) []uint64 {
	widths := s.FieldWidths()
	flat := make([]uint64, 0, n*len(widths))
	for i := 0; i < n; i++ {
		for _, w := range widths {
			flat = append(flat, rng.Uint64()&(uint64(1)<<w-1))
		}
	}
	return flat
}

// checkSlice cross-checks a slice's batch ordinals against the brute-force
// reference scan of the shared table.
func checkSlice(t *testing.T, p *tenant.Partition, s *tenant.Slice, flat []uint64) {
	t.Helper()
	arity := len(s.FieldWidths())
	ords, pay := s.LookupIndexBatch(flat, nil)
	for i, ord := range ords {
		phys := make([]uint64, 3)
		phys[0] = s.ID()
		copy(phys[1:], flat[i*arity:(i+1)*arity])
		all := p.Table().LookupAll(phys...)
		got := pay.Entry(ord)
		if (got != nil) != (len(all) > 0) || got != nil && got.ID != all[0].ID {
			t.Fatalf("%s key %#x: ordinal %d entry %v, reference %d matches", s.Name(), phys, ord, got, len(all))
		}
	}
}

// TestSharedTableCompilesKeyed pins the keyed compilation of the shared
// tenant table: each unary slice's partition drops its wildcarded second
// operand field and compiles to a range set, the binary slice's to a
// product grid, no whole-table trie is built, and a partition with nested
// prefixes falls back to a trie alone while its neighbours keep their forms.
func TestSharedTableCompilesKeyed(t *testing.T) {
	p, ua, ub, bin := mountShared(t, 2)
	kind, parts, wholeTrie := tcam.CompiledForm(p.Table())
	if kind != "keyed" || wholeTrie {
		t.Fatalf("shared table compiled to %q (whole-table trie %v), want keyed without one", kind, wholeTrie)
	}
	want := map[uint64]string{ua.ID(): "rset", ub.ID(): "rset", bin.ID(): "grid"}
	for id, k := range want {
		if parts[id] != k {
			t.Fatalf("partition %d compiled to %q, want %q (all: %v)", id, parts[id], k, parts)
		}
	}

	nested, err := p.Open("nested", []int{16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := []tcam.Row{
		{Fields: []tcam.Field{{Value: 0x8000, Mask: 0x8000}}, Data: uint64(1)},
		{Fields: []tcam.Field{{Value: 0xC000, Mask: 0xC000}}, Data: uint64(2)}, // nested in the first
	}
	if _, err := nested.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	kind, parts, wholeTrie = tcam.CompiledForm(p.Table())
	if kind != "keyed" || wholeTrie {
		t.Fatalf("after the nested slice: %q (whole-table trie %v), want keyed without one", kind, wholeTrie)
	}
	want[nested.ID()] = "trie"
	for id, k := range want {
		if parts[id] != k {
			t.Fatalf("partition %d compiled to %q, want %q (all: %v)", id, parts[id], k, parts)
		}
	}

	rng := rand.New(rand.NewSource(51))
	for _, s := range []*tenant.Slice{ua, ub, bin, nested} {
		checkSlice(t, p, s, uniformKeys(rng, s, 2000))
	}
}

// TestSliceLookupIndexBatchZeroAlloc: a warm tenant batch lookup through the
// keyed form allocates nothing.
func TestSliceLookupIndexBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	_, ua, _, bin := mountShared(t, 0)
	rng := rand.New(rand.NewSource(52))
	for _, s := range []*tenant.Slice{ua, bin} {
		flat := uniformKeys(rng, s, 512)
		dst, _ := s.LookupIndexBatch(flat, nil)
		if allocs := testing.AllocsPerRun(100, func() {
			dst, _ = s.LookupIndexBatch(flat, dst)
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per warm LookupIndexBatch, want 0", s.Name(), allocs)
		}
	}
}

// BenchmarkSliceLookupIndexBatch measures tenant batch lookups on the
// shared table with uniform keys, one 4096-tuple batch per op.
func BenchmarkSliceLookupIndexBatch(b *testing.B) {
	_, ua, _, bin := mountShared(b, 0)
	for _, s := range []*tenant.Slice{ua, bin} {
		b.Run(s.TenantName(), func(b *testing.B) {
			flat := uniformKeys(rand.New(rand.NewSource(53)), s, 4096)
			dst, _ := s.LookupIndexBatch(flat, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = s.LookupIndexBatch(flat, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/lookup")
		})
	}
}
