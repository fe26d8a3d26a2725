package tcam_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/tcam"
)

// errHook is the injected row-write failure.
var errHook = errors.New("injected row-write failure")

// modelRow is one entry of the ApplyDelta model: a row plus the entry ID
// the table assigns it. IDs grow with insertion sequence, so (sig desc,
// priority desc, ID asc) is the table's resolution order.
type modelRow struct {
	row tcam.Row
	id  int
	sig int
}

func rowKey(r tcam.Row) string { return tcam.RowKey(r.Fields, r.Priority) }

// modelDelta applies ApplyDelta's documented semantics to the installed
// rows (in resolution order) and predicts the outcome: the end state, the
// row writes and the per-kind counts, or the error the call must fail with.
// The write hook fails on write call failAt (1-based; 0 never fails).
func modelDelta(installed []modelRow, nextID, capacity int, upserts, deletes []tcam.Row, failAt int) (end []modelRow, writes int, counts tcam.Stats, err error) {
	end = append([]modelRow(nil), installed...)
	calls := 0
	write := func() error {
		calls++
		if calls == failAt {
			return errHook
		}
		return nil
	}
	find := func(k string) int {
		for i, m := range end {
			if rowKey(m.row) == k {
				return i
			}
		}
		return -1
	}
	for _, d := range deletes {
		i := find(rowKey(d))
		if i < 0 {
			return nil, 0, tcam.Stats{}, tcam.ErrDeltaConflict
		}
		if err := write(); err != nil {
			return nil, 0, tcam.Stats{}, err
		}
		end = append(end[:i], end[i+1:]...)
		counts.Deletes++
	}
	for _, u := range upserts {
		if i := find(rowKey(u)); i >= 0 {
			if end[i].row.Data == u.Data {
				continue
			}
			if err := write(); err != nil {
				return nil, 0, tcam.Stats{}, err
			}
			end[i].row.Data = u.Data
			counts.Updates++
			continue
		}
		if capacity > 0 && len(end) >= capacity {
			return nil, 0, tcam.Stats{}, tcam.ErrCapacity
		}
		if err := write(); err != nil {
			return nil, 0, tcam.Stats{}, err
		}
		nextID++
		end = append(end, modelRow{row: u, id: nextID, sig: sigOf(u)})
		counts.Inserts++
	}
	sort.SliceStable(end, func(a, b int) bool {
		x, y := end[a], end[b]
		if x.sig != y.sig {
			return x.sig > y.sig
		}
		if x.row.Priority != y.row.Priority {
			return x.row.Priority > y.row.Priority
		}
		return x.id < y.id
	})
	return end, int(counts.Deletes + counts.Updates + counts.Inserts), counts, nil
}

func sigOf(r tcam.Row) int {
	sig := 0
	for _, f := range r.Fields {
		sig += f.SigBits()
	}
	return sig
}

// state is everything a rolled-back call must leave untouched.
type state struct {
	entries     string
	fingerprint string
	generation  uint64
	stats       tcam.Stats
}

func tableState(tb *tcam.Table) state {
	st := tb.Stats()
	st.Lookups, st.Hits, st.Misses = 0, 0, 0
	return state{entries: describe(tb.Entries()), fingerprint: tb.Fingerprint(), generation: tb.Generation(), stats: st}
}

// describe renders entries in order with their IDs.
func describe(es []*tcam.Entry) string {
	s := ""
	for _, e := range es {
		s += fmt.Sprintf("%d:%v/%d=%v ", e.ID, e.Fields, e.Priority, e.Data)
	}
	return s
}

func describeModel(ms []modelRow) string {
	s := ""
	for _, m := range ms {
		s += fmt.Sprintf("%d:%v/%d=%v ", m.id, m.row.Fields, m.row.Priority, m.row.Data)
	}
	return s
}

// FuzzApplyDelta checks Table.ApplyDelta against a model of its documented
// semantics and against a twin table reconciled with ApplyRowsAtomic to the
// same end state. Inputs draw small tables (duplicate keys included),
// upserts, deletes (missing keys included), a capacity, and a write-hook
// failure at a random row. On success the entry order, fingerprint, write
// count and counters must match; on failure the table must be exactly as
// before the call, and a retry without the fault must behave as if the
// fault never happened.
func FuzzApplyDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		const width = 6
		randRow := func() tcam.Row {
			depth := in.intn(width + 1)
			p := bitstr.MustNew(in.bits(width)&widthMask(width), depth, width)
			return tcam.Row{
				Fields:   []tcam.Field{tcam.FieldFromPrefix(p)},
				Priority: in.intn(2),
				Data:     uint64(in.intn(4)),
			}
		}
		var base []tcam.Row
		for i, n := 0, in.intn(12); i < n; i++ {
			base = append(base, randRow())
		}
		var extra []tcam.Row // single-row inserts, often duplicating a key
		for i, n := 0, in.intn(3); i < n && len(base) > 0; i++ {
			r := base[in.intn(len(base))]
			r.Data = uint64(in.intn(4))
			extra = append(extra, r)
		}
		capacity := 0
		if in.intn(2) == 0 {
			capacity = len(base) + len(extra) + in.intn(4)
		}
		build := func() *tcam.Table {
			tb := tcam.MustNew("delta", capacity, width)
			if _, err := tb.ApplyRowsAtomic(base); err != nil {
				t.Fatal(err)
			}
			for _, r := range extra {
				if _, err := tb.Insert(r.Fields, r.Priority, r.Data); err != nil {
					t.Fatal(err)
				}
			}
			return tb
		}
		pick := func() tcam.Row {
			if len(base) > 0 && in.intn(4) != 0 {
				r := base[in.intn(len(base))]
				r.Data = uint64(in.intn(4))
				return r
			}
			return randRow()
		}
		var upserts, deletes []tcam.Row
		for i, n := 0, in.intn(8); i < n; i++ {
			upserts = append(upserts, pick())
		}
		for i, n := 0, in.intn(6); i < n; i++ {
			deletes = append(deletes, pick())
		}
		failAt := in.intn(len(upserts) + len(deletes) + 2)

		tb := build()
		var installed []modelRow
		maxID := 0
		for _, e := range tb.Entries() {
			r := tcam.Row{Fields: e.Fields, Priority: e.Priority, Data: e.Data}
			installed = append(installed, modelRow{row: r, id: e.ID, sig: e.SigBits()})
			maxID = max(maxID, e.ID)
		}
		// attempt runs ApplyDelta with the hook failing at write call
		// failAt and checks it against the model; it reports whether the
		// call committed.
		attempt := func(failAt int) bool {
			wantEnd, wantWrites, wantCounts, wantErr := modelDelta(installed, maxID, capacity, upserts, deletes, failAt)
			calls := 0
			tb.SetWriteHook(func(tcam.WriteOp) error {
				calls++
				if calls == failAt {
					return errHook
				}
				return nil
			})
			before := tableState(tb)
			version := tb.Version()
			writes, err := tb.ApplyDelta(upserts, deletes)
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Fatalf("ApplyDelta error %v, want %v", err, wantErr)
				}
				if writes != 0 {
					t.Fatalf("failed ApplyDelta reported %d writes", writes)
				}
				if after := tableState(tb); after != before {
					t.Fatalf("failed ApplyDelta changed the table:\nbefore %+v\nafter  %+v", before, after)
				}
				if tb.Version() == version {
					t.Fatal("rolled-back ApplyDelta did not advance Version")
				}
				return false
			}
			if err != nil {
				t.Fatalf("ApplyDelta: %v, want success", err)
			}
			if got, want := describe(tb.Entries()), describeModel(wantEnd); got != want {
				t.Fatalf("entries after ApplyDelta:\n got %s\nwant %s", got, want)
			}
			if writes != wantWrites {
				t.Fatalf("ApplyDelta wrote %d rows, want %d", writes, wantWrites)
			}
			st := tb.Stats()
			if d := (tcam.Stats{Inserts: st.Inserts - before.stats.Inserts, Deletes: st.Deletes - before.stats.Deletes, Updates: st.Updates - before.stats.Updates}); d != wantCounts {
				t.Fatalf("counter deltas %+v, want %+v", d, wantCounts)
			}
			if tb.Generation() != before.generation+1 {
				t.Fatalf("generation %d after a commit at %d", tb.Generation(), before.generation)
			}
			return true
		}
		// A rolled-back fault is transient: the retry must then behave as
		// if it never happened.
		if !attempt(failAt) && (failAt == 0 || !attempt(0)) {
			return
		}

		twin := build()
		rows := make([]tcam.Row, tb.Len())
		for i, e := range tb.Entries() {
			rows[i] = tcam.Row{Fields: e.Fields, Priority: e.Priority, Data: e.Data}
		}
		if _, err := twin.ApplyRowsAtomic(rows); err != nil {
			t.Fatalf("twin ApplyRowsAtomic: %v", err)
		}
		if tb.Fingerprint() != twin.Fingerprint() {
			t.Fatalf("ApplyDelta and the ApplyRowsAtomic twin diverge:\n%s\nvs\n%s", describe(tb.Entries()), describe(twin.Entries()))
		}
	})
}
