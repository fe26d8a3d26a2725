package tcam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ada-repro/ada/internal/bitstr"
)

var (
	// ErrCapacity reports an insert into a full table.
	ErrCapacity = errors.New("tcam: table capacity exhausted")
	// ErrFieldCount reports a key or entry with the wrong number of fields.
	ErrFieldCount = errors.New("tcam: field count mismatch")
	// ErrNotFound reports an operation on a non-existent entry ID.
	ErrNotFound = errors.New("tcam: entry not found")
	// ErrFieldWidth reports a field value or mask outside its declared width.
	ErrFieldWidth = errors.New("tcam: field exceeds declared width")
	// ErrDeltaConflict reports an ApplyDelta whose view of the installed
	// population diverged from the table (e.g. a delete of a row that is not
	// installed). The caller's shadow copy is stale; it must fall back to a
	// full reconciliation.
	ErrDeltaConflict = errors.New("tcam: delta conflicts with installed entries")
)

// WriteOp identifies one physical row operation presented to a write hook.
type WriteOp int

// Write operations, in the order a driver would issue them.
const (
	// WriteInsert is a new row install.
	WriteInsert WriteOp = iota
	// WriteDelete is a row invalidate.
	WriteDelete
	// WriteUpdate is an in-place action-data rewrite.
	WriteUpdate
)

// String implements fmt.Stringer.
func (op WriteOp) String() string {
	switch op {
	case WriteInsert:
		return "insert"
	case WriteDelete:
		return "delete"
	case WriteUpdate:
		return "update"
	default:
		return fmt.Sprintf("WriteOp(%d)", int(op))
	}
}

// WriteHook is consulted before every physical row write. Returning an error
// aborts that write; every bulk operation (ReplaceAll, ApplyRowsAtomic,
// ApplyDelta) then leaves the table exactly as it was before the call. The
// hook runs with the table lock held and must not call back into the table.
type WriteHook func(WriteOp) error

// Field is one ternary key field of an entry: the key bits selected by Mask
// must equal Value.
type Field struct {
	Value uint64
	Mask  uint64
}

// FieldFromPrefix converts a bitstr.Prefix into a ternary Field.
func FieldFromPrefix(p bitstr.Prefix) Field {
	return Field{Value: p.Value(), Mask: p.Mask()}
}

// SigBits returns the number of significant (masked) bits in the field.
func (f Field) SigBits() int { return bits.OnesCount64(f.Mask) }

// Matches reports whether key satisfies the field pattern.
func (f Field) Matches(key uint64) bool { return key&f.Mask == f.Value }

// Entry is one installed TCAM row.
type Entry struct {
	// ID is the table-unique identifier assigned at insert.
	ID int
	// Fields are the ternary match fields, one per table key field.
	Fields []Field
	// Priority breaks ties between entries with equal significant bits;
	// larger wins.
	Priority int
	// Data is the opaque action data (e.g. an arithmetic result or a
	// register index).
	Data any

	sig int    // cached total significant bits
	seq int    // insertion sequence for deterministic final tie-break
	key string // match key serialised once at insert; Fields/Priority are immutable
	ord int32  // dense snapshot ordinal, assigned per compiled index build
}

// SigBits returns the total number of significant bits across all fields.
func (e *Entry) SigBits() int { return e.sig }

// MatchKey returns the entry's serialised match key (fields plus priority),
// computed once at insert time. Reconciliation and fingerprinting reuse it
// instead of re-serialising every installed entry per round.
func (e *Entry) MatchKey() string { return e.key }

// Stats counts table operations since creation (or the last ResetStats).
type Stats struct {
	Lookups uint64
	Hits    uint64
	Misses  uint64
	Inserts uint64
	Deletes uint64
	Updates uint64
}

// counters is the live, atomically-updated form of Stats. Lookup counters
// are incremented off-lock so the read path never needs the table mutex.
type counters struct {
	lookups atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	inserts atomic.Uint64
	deletes atomic.Uint64
	updates atomic.Uint64
}

// Table is a ternary match table with bounded capacity. It is safe for
// concurrent use; Lookup and LookupIndexBatch are lock-free against a
// compiled index snapshot (see index.go) and scale across goroutines.
type Table struct {
	mu sync.RWMutex

	name        string
	capacity    int
	fieldWidths []int
	entries     map[int]*Entry
	ordered     []*Entry // resolution order: sig desc, priority desc, seq asc
	nextID      int
	nextSeq     int
	generation  uint64
	hook        WriteHook
	stats       counters

	// version counts every content mutation performed through the table API
	// (unlike generation, which only counts bulk commits). It is the counter
	// a control-plane shadow copy watches; silent hardware tampering (the
	// Tamper* methods) deliberately does not advance it.
	version atomic.Uint64
	// idxSeq keys the compiled index. It advances on every content change —
	// API mutations and silent tampering alike — so the data plane always
	// serves the physical contents, even the corrupted ones the control
	// plane has not noticed yet.
	idxSeq atomic.Uint64
	idx    atomic.Pointer[index]
	idxMu  sync.Mutex // serialises index rebuilds
}

// New creates a ternary table. capacity <= 0 means unbounded (used to model
// the paper's "ideal, unlimited TCAM" baseline). fieldWidths declares the bit
// width of each key field; at least one field is required.
func New(name string, capacity int, fieldWidths ...int) (*Table, error) {
	if len(fieldWidths) == 0 {
		return nil, fmt.Errorf("%w: table %q needs at least one field", ErrFieldCount, name)
	}
	for i, w := range fieldWidths {
		if w < 1 || w > 64 {
			return nil, fmt.Errorf("%w: field %d width %d", ErrFieldWidth, i, w)
		}
	}
	widths := make([]int, len(fieldWidths))
	copy(widths, fieldWidths)
	return &Table{
		name:        name,
		capacity:    capacity,
		fieldWidths: widths,
		entries:     make(map[int]*Entry),
	}, nil
}

// MustNew is New but panics on error; for tests and static configuration.
func MustNew(name string, capacity int, fieldWidths ...int) *Table {
	t, err := New(name, capacity, fieldWidths...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Capacity returns the entry limit (0 = unbounded).
func (t *Table) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Occupancy returns installed/capacity in [0,1]; 0 for unbounded tables.
func (t *Table) Occupancy() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.capacity <= 0 {
		return 0
	}
	return float64(len(t.entries)) / float64(t.capacity)
}

// FieldWidths returns a copy of the declared per-field widths.
func (t *Table) FieldWidths() []int {
	out := make([]int, len(t.fieldWidths))
	copy(out, t.fieldWidths)
	return out
}

// Stats returns a snapshot of the operation counters. The counters are
// atomics, so the snapshot needs no lock; individual counters are read
// independently (a concurrent lookup may land between two reads).
func (t *Table) Stats() Stats {
	return Stats{
		Lookups: t.stats.lookups.Load(),
		Hits:    t.stats.hits.Load(),
		Misses:  t.stats.misses.Load(),
		Inserts: t.stats.inserts.Load(),
		Deletes: t.stats.deletes.Load(),
		Updates: t.stats.updates.Load(),
	}
}

// ResetStats zeroes the operation counters.
func (t *Table) ResetStats() {
	t.stats.lookups.Store(0)
	t.stats.hits.Store(0)
	t.stats.misses.Store(0)
	t.stats.inserts.Store(0)
	t.stats.deletes.Store(0)
	t.stats.updates.Store(0)
}

// dirtyLocked records a content mutation; t.mu must be held exclusively.
// The next Lookup recompiles the index from the committed state.
func (t *Table) dirtyLocked() {
	t.version.Add(1)
	t.idxSeq.Add(1)
}

// tamperLocked records a silent hardware mutation: the compiled index is
// invalidated (the data plane must serve the corrupted contents) but the
// externally visible Version stays put, so a controller shadow guarded by
// Version cannot tell anything happened. t.mu must be held exclusively.
func (t *Table) tamperLocked() {
	t.idxSeq.Add(1)
}

// loadIndex returns the compiled index for the current table contents,
// rebuilding it if a mutation invalidated the cached one.
func (t *Table) loadIndex() *index {
	if ix := t.idx.Load(); ix != nil && ix.version == t.idxSeq.Load() {
		return ix
	}
	return t.rebuildIndex()
}

// rebuildIndex compiles a fresh snapshot under the read lock (so it always
// observes a fully committed state, never a torn mid-commit one) and
// publishes it. idxMu keeps a rebuild herd from compiling the same version
// many times; a writer committing mid-build simply leaves the published
// index stale, and the next lookup rebuilds again.
func (t *Table) rebuildIndex() *index {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if ix := t.idx.Load(); ix != nil && ix.version == t.idxSeq.Load() {
		return ix
	}
	t.mu.RLock()
	ix := buildIndex(t.idxSeq.Load(), t.fieldWidths, t.ordered)
	t.mu.RUnlock()
	t.idx.Store(ix)
	return ix
}

// SetWriteHook installs h as the per-row write interceptor (nil clears it).
// Fault injectors use this to make individual TCAM row writes fail the way a
// real switch driver's do.
func (t *Table) SetWriteHook(h WriteHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = h
}

// Generation returns the bulk-commit generation: it advances by one each
// time ReplaceAll, ApplyRowsAtomic, or ApplyDelta completes successfully,
// and never on a failed or rolled-back commit. Invariant checks use it to
// assert a table is either fully old-generation or fully new-generation.
func (t *Table) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.generation
}

// GenerationChanged reports whether the bulk-commit generation has advanced
// past since — the idiom control-plane callers use to ask "did any round,
// audit repair, or repopulation commit since I last looked?" without
// restating the counter semantics (see doc.go for the full contract).
func (t *Table) GenerationChanged(since uint64) bool {
	return t.Generation() != since
}

// Version returns the content mutation counter. Unlike Generation it advances
// on every mutation — single-row operations and rollbacks included — so a
// caller holding a shadow copy of the installed population can use an
// unchanged Version as proof that no one else touched the table. The counter
// is conservative: a rolled-back commit bumps it even though the content is
// unchanged, which at worst forces one unnecessary full reconciliation.
func (t *Table) Version() uint64 { return t.version.Load() }

// Fingerprint digests the installed rows (match key, priority, action data)
// independent of entry IDs and install order: two tables holding the same
// logical population fingerprint equal. Used with Generation by the chaos
// invariant checks.
func (t *Table) Fingerprint() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.ordered))
	for _, e := range t.ordered {
		keys = append(keys, e.key+"="+fmt.Sprint(e.Data))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// writeLocked consults the write hook for one physical row operation.
func (t *Table) writeLocked(op WriteOp) error {
	if t.hook == nil {
		return nil
	}
	return t.hook(op)
}

func (t *Table) validateFields(fields []Field) error {
	if len(fields) != len(t.fieldWidths) {
		return fmt.Errorf("%w: got %d fields, table %q has %d",
			ErrFieldCount, len(fields), t.name, len(t.fieldWidths))
	}
	for i, f := range fields {
		var m uint64
		if t.fieldWidths[i] >= 64 {
			m = ^uint64(0)
		} else {
			m = (uint64(1) << uint(t.fieldWidths[i])) - 1
		}
		if f.Value&^m != 0 || f.Mask&^m != 0 {
			return fmt.Errorf("%w: field %d value %#x mask %#x width %d",
				ErrFieldWidth, i, f.Value, f.Mask, t.fieldWidths[i])
		}
		if f.Value&^f.Mask != 0 {
			return fmt.Errorf("%w: field %d has value bits outside mask", ErrFieldWidth, i)
		}
	}
	return nil
}

// Insert installs a new entry and returns its ID. It fails with ErrCapacity
// when the table is full.
func (t *Table) Insert(fields []Field, priority int, data any) (int, error) {
	if err := t.validateFields(fields); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.entries), Requested: 1}
	}
	if err := t.writeLocked(WriteInsert); err != nil {
		return 0, err
	}
	e := t.newEntryLocked(fields, priority, data)
	t.entries[e.ID] = e
	t.insertOrdered(e)
	t.stats.inserts.Add(1)
	t.dirtyLocked()
	return e.ID, nil
}

// newEntryLocked allocates an entry with a fresh ID/seq and the cached sig
// bits and match key; t.mu must be held. The fields slice is copied.
func (t *Table) newEntryLocked(fields []Field, priority int, data any) *Entry {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	sig := 0
	for _, f := range fs {
		sig += f.SigBits()
	}
	t.nextID++
	t.nextSeq++
	return &Entry{
		ID: t.nextID, Fields: fs, Priority: priority, Data: data,
		sig: sig, seq: t.nextSeq, key: matchKey(fs, priority),
	}
}

// removeOrderedLocked drops e from the resolution order; t.mu must be held.
func (t *Table) removeOrderedLocked(e *Entry) {
	if i := t.orderedPos(e); i < len(t.ordered) && t.ordered[i] == e {
		t.ordered = append(t.ordered[:i], t.ordered[i+1:]...)
	}
}

// orderedPos returns e's index in the resolution order (the insertion point
// when e is not installed). less is a strict total order, so the binary
// search lands on e itself.
func (t *Table) orderedPos(e *Entry) int {
	return sort.Search(len(t.ordered), func(i int) bool { return !less(t.ordered[i], e) })
}

// reorderLocked applies a commit's deletes and inserts to the resolution
// order in one pass: the deleted entries are compacted out once and the
// inserts, sorted, are merged in once — O(n + k log k) for a table of n
// entries and a delta of k, where one memmove per row would cost O(n·k).
// Every entry of dels must be installed in t.ordered; t.mu must be held.
func (t *Table) reorderLocked(dels, ins []*Entry) {
	if len(dels) > 0 {
		pos := make([]int, len(dels))
		for i, e := range dels {
			pos[i] = t.orderedPos(e)
		}
		sort.Ints(pos)
		n := len(t.ordered)
		kept := t.ordered[:pos[0]]
		for i, p := range pos {
			next := n
			if i+1 < len(pos) {
				next = pos[i+1]
			}
			kept = append(kept, t.ordered[p+1:next]...)
		}
		clear(t.ordered[len(kept):n])
		t.ordered = kept
	}
	if len(ins) > 0 {
		slices.SortFunc(ins, func(a, b *Entry) int {
			switch {
			case less(a, b):
				return -1
			case less(b, a):
				return 1
			}
			return 0
		})
		// Merge from the back so the grown slice is filled in place.
		i, j := len(t.ordered)-1, len(ins)-1
		t.ordered = append(t.ordered, ins...)
		for w := len(t.ordered) - 1; j >= 0; w-- {
			if i >= 0 && less(ins[j], t.ordered[i]) {
				t.ordered[w] = t.ordered[i]
				i--
			} else {
				t.ordered[w] = ins[j]
				j--
			}
		}
	}
}

// InsertPrefix installs a single-field entry matching the given prefix.
func (t *Table) InsertPrefix(p bitstr.Prefix, priority int, data any) (int, error) {
	return t.Insert([]Field{FieldFromPrefix(p)}, priority, data)
}

// less reports resolution order: more significant bits first (LPM), then
// higher priority, then earlier insertion.
func less(a, b *Entry) bool {
	if a.sig != b.sig {
		return a.sig > b.sig
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

func (t *Table) insertOrdered(e *Entry) {
	i := sort.Search(len(t.ordered), func(i int) bool { return !less(t.ordered[i], e) })
	t.ordered = append(t.ordered, nil)
	copy(t.ordered[i+1:], t.ordered[i:])
	t.ordered[i] = e
}

// Delete removes the entry with the given ID.
func (t *Table) Delete(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: id %d in table %q", ErrNotFound, id, t.name)
	}
	if err := t.writeLocked(WriteDelete); err != nil {
		return err
	}
	delete(t.entries, id)
	t.removeOrderedLocked(e)
	t.stats.deletes.Add(1)
	t.dirtyLocked()
	return nil
}

// Clear removes all entries. Each removed entry counts as one delete, since
// the control plane pays per-entry to invalidate TCAM rows.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.deletes.Add(uint64(len(t.entries)))
	t.entries = make(map[int]*Entry)
	t.ordered = t.ordered[:0]
	t.dirtyLocked()
}

// Lookup matches the key fields against the table and returns the winning
// entry under LPM resolution. The match runs lock-free against the compiled
// index (O(total key width), not O(entries)); the returned entry is part of
// an immutable snapshot, so holding it across later table mutations is safe.
func (t *Table) Lookup(keys ...uint64) (*Entry, bool) {
	t.stats.lookups.Add(1)
	if len(keys) != len(t.fieldWidths) {
		t.stats.misses.Add(1)
		return nil, false
	}
	e := t.loadIndex().lookup(keys)
	if e == nil {
		t.stats.misses.Add(1)
		return nil, false
	}
	t.stats.hits.Add(1)
	return e, true
}

// LookupBatch resolves many multi-field keys against one compiled snapshot
// and returns the winners positionally (nil = miss). All results come from
// the same committed generation — a bulk commit racing with the batch is
// observed either entirely or not at all. It is kept for the data-plane
// benchmark's pre-optimisation replica only (see LookupSingleBatchTrie).
func (t *Table) LookupBatch(keys [][]uint64) []*Entry {
	out := make([]*Entry, len(keys))
	if len(keys) == 0 {
		return out
	}
	ix := t.loadIndex()
	var hits uint64
	for i, ks := range keys {
		if len(ks) != len(t.fieldWidths) {
			continue
		}
		if e := ix.lookup(ks); e != nil {
			out[i] = e
			hits++
		}
	}
	t.stats.lookups.Add(uint64(len(keys)))
	t.stats.hits.Add(hits)
	t.stats.misses.Add(uint64(len(keys)) - hits)
	return out
}

// LookupSingleBatchTrie resolves single-field keys to winning entries
// (nil on miss) through the compiled trie walk, bypassing the range-compiled
// fast path single-field tables usually resolve through. dst is reused when
// it has the capacity; on a multi-field table every key misses. Results are
// bit-identical to LookupIndexBatch's.
//
// It and LookupBatch are not part of Store: the data-plane throughput
// benchmark's replica of the pre-optimisation path calls them to reproduce
// that path's per-sample cost, and the differential tests cross-check the
// range compilation against the trie through it.
func (t *Table) LookupSingleBatchTrie(keys []uint64, dst []*Entry) []*Entry {
	if cap(dst) >= len(keys) {
		dst = dst[:len(keys)]
		for i := range dst {
			dst[i] = nil
		}
	} else {
		dst = make([]*Entry, len(keys))
	}
	if len(keys) == 0 {
		return dst
	}
	if len(t.fieldWidths) != 1 {
		t.stats.lookups.Add(uint64(len(keys)))
		t.stats.misses.Add(uint64(len(keys)))
		return dst
	}
	ix := t.loadIndex()
	var hits uint64
	kbuf := make([]uint64, 1)
	for i, k := range keys {
		kbuf[0] = k
		if ord := ix.trieLookupOrd(kbuf); ord >= 0 {
			dst[i] = ix.entries[ord]
			hits++
		}
	}
	t.stats.lookups.Add(uint64(len(keys)))
	t.stats.hits.Add(hits)
	t.stats.misses.Add(uint64(len(keys)) - hits)
	return dst
}

// Payloads is the typed action-data view of one compiled snapshot. Ordinals
// returned by a LookupIndexBatch call index only the Payloads returned by
// that same call — both come from the same immutable snapshot, so holding
// them across later table mutations is safe, but mixing ordinals and
// payloads from different calls is not.
type Payloads struct {
	entries []*Entry
	vals    []uint64 // dense payload per ordinal, valid when typed
	typed   bool
}

// Value resolves an ordinal to its action data as a uint64 without boxing:
// a direct array load when the snapshot compiled typed (every entry's Data a
// uint64 or non-negative int — all population schemes and the monitor
// qualify), an interface assertion otherwise. It reports false for negative
// (miss) or out-of-snapshot ordinals and for non-integral action data.
func (p Payloads) Value(ord int32) (uint64, bool) {
	if ord < 0 || int(ord) >= len(p.entries) {
		return 0, false
	}
	if p.typed {
		return p.vals[ord], true
	}
	switch d := p.entries[ord].Data.(type) {
	case uint64:
		return d, true
	case int:
		if d >= 0 {
			return uint64(d), true
		}
	}
	return 0, false
}

// Entry returns the snapshot entry behind an ordinal (nil for a miss
// ordinal), for callers that need more than the typed payload.
func (p Payloads) Entry(ord int32) *Entry {
	if ord < 0 || int(ord) >= len(p.entries) {
		return nil
	}
	return p.entries[ord]
}

// Typed reports whether Value resolves through the dense payload array.
func (p Payloads) Typed() bool { return p.typed }

// LookupIndexBatch is the zero-allocation batch lookup: flat packs
// len(flat)/arity key tuples contiguously ([x0, y0, x1, y1, ...] for a
// two-field table), and each tuple resolves to the winning entry's dense
// snapshot ordinal (−1 on a miss) against one compiled snapshot. dst is
// reused when it has the capacity, so a caller recycling its scratch buffer
// performs no allocation; the returned Payloads resolves ordinals to action
// data without per-sample interface assertions. Trailing elements of flat
// that do not form a whole tuple are ignored.
func (t *Table) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, Payloads) {
	arity := len(t.fieldWidths)
	n := len(flat) / arity
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int32, n)
	}
	ix := t.loadIndex()
	var hits uint64
	rs := ix.rset
	switch {
	case rs != nil && arity == 1 && rs.lut == nil && n >= minAscendingBatch && slices.IsSorted(flat[:n]):
		// An ascending batch (a LookupCache's sorted miss list) sweeps the
		// predecessor-searched range array once instead of bisecting it
		// per key.
		rs.resolveAscending(flat[:n], dst)
		for _, ord := range dst {
			if ord >= 0 {
				hits++
			}
		}
	case rs != nil && arity == 1:
		for i, k := range flat[:n] {
			ord := rs.resolve(k)
			dst[i] = ord
			if ord >= 0 {
				hits++
			}
		}
	case ix.keyed:
		// One indexed load on each tuple's field 0 picks its partition;
		// the partition resolves the tuple in place in flat.
		parts, idMask := ix.parts, ix.idMask
		for i := range dst {
			base := i * arity
			ord := int32(-1)
			if id := flat[base] & idMask; id < uint64(len(parts)) {
				ord = parts[id].lookupAt(flat, base)
			}
			dst[i] = ord
			if ord >= 0 {
				hits++
			}
		}
	default:
		for i := 0; i < n; i++ {
			ord := ix.lookupOrd(flat[i*arity : (i+1)*arity])
			dst[i] = ord
			if ord >= 0 {
				hits++
			}
		}
	}
	if n > 0 {
		t.stats.lookups.Add(uint64(n))
		t.stats.hits.Add(hits)
		t.stats.misses.Add(uint64(n) - hits)
	}
	return dst, Payloads{entries: ix.entries, vals: ix.payload, typed: ix.typed}
}

// LookupSnapshot returns the current compiled snapshot's payload view plus
// its generation token. The token is the compiled-index sequence, which
// advances on every content change — bulk commits, single-row writes,
// rollbacks, and silent tampering alike — so a LookupCache keyed on it can
// never serve an ordinal from a superseded snapshot.
func (t *Table) LookupSnapshot() (Payloads, uint64) {
	ix := t.loadIndex()
	return Payloads{entries: ix.entries, vals: ix.payload, typed: ix.typed}, ix.version
}

func matchAll(fields []Field, keys []uint64) bool {
	for i, f := range fields {
		if !f.Matches(keys[i]) {
			return false
		}
	}
	return true
}

// Entries returns a snapshot of all entries in resolution order.
func (t *Table) Entries() []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Entry, len(t.ordered))
	copy(out, t.ordered)
	return out
}

// ReplaceAll atomically swaps the table contents for the given rows,
// returning the number of TCAM writes performed (deletes of stale rows plus
// inserts of new rows). This is the bulk operation the ADA controller issues
// at the end of every control round.
func (t *Table) ReplaceAll(rows []Row) (writes int, err error) {
	for _, r := range rows {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity > 0 && len(rows) > t.capacity {
		return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.entries), Requested: len(rows)}
	}
	// Pre-flight every row write so the advertised atomicity holds even
	// under an injected per-row failure: either all writes are admitted or
	// none are applied.
	for range t.entries {
		if err := t.writeLocked(WriteDelete); err != nil {
			return 0, err
		}
	}
	for range rows {
		if err := t.writeLocked(WriteInsert); err != nil {
			return 0, err
		}
	}
	writes = len(t.entries) + len(rows)
	t.stats.deletes.Add(uint64(len(t.entries)))
	t.entries = make(map[int]*Entry, len(rows))
	clear(t.ordered)
	t.ordered = t.ordered[:0]
	ins := make([]*Entry, len(rows))
	for i, r := range rows {
		e := t.newEntryLocked(r.Fields, r.Priority, r.Data)
		t.entries[e.ID] = e
		ins[i] = e
	}
	t.reorderLocked(nil, ins)
	t.stats.inserts.Add(uint64(len(rows)))
	t.generation++
	t.dirtyLocked()
	return writes, nil
}

// ApplyRowsAtomic reconciles the table contents toward the given rows with
// the minimum number of TCAM writes: rows whose match key and action data are
// already installed cost nothing, rows whose key exists but whose data
// changed cost one action rewrite, and only genuinely new/stale rows cost
// an insert/delete. This models a real switch driver, which diffs against
// its shadow copy instead of re-flashing the table (and is what keeps the
// paper's Table II write counts low). The end state on success is identical
// to ReplaceAll(rows); only the write accounting differs.
//
// The reconciliation is staged, and on any row-write failure the table
// (entries, counters, generation) is restored to its pre-call state. This
// models rebuilding the calculation population into a shadow generation and
// committing it atomically, so a data-plane lookup never observes a
// partially populated table.
func (t *Table) ApplyRowsAtomic(rows []Row) (writes int, err error) {
	for _, r := range rows {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tx := t.beginLocked()
	if t.capacity > 0 && len(rows) > t.capacity {
		tx.rollback()
		return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.entries), Requested: len(rows)}
	}
	keys := newKeyIndex(t.ordered)
	// Rows whose key is installed keep their entry (rewriting its data if
	// it changed); the rest are inserted. Entries no row claimed are stale.
	var toInsert []Row
	for _, r := range rows {
		e, ok := keys.take(matchKey(r.Fields, r.Priority))
		if !ok {
			toInsert = append(toInsert, r)
			continue
		}
		if err := tx.update(e, r.Data); err != nil {
			return 0, err
		}
	}
	for _, e := range t.ordered {
		if !keys.holds(e) {
			continue
		}
		if err := tx.remove(e); err != nil {
			return 0, err
		}
	}
	for _, r := range toInsert {
		if _, err := tx.insert(r); err != nil {
			return 0, err
		}
	}
	return tx.commit(), nil
}

// ApplyDelta applies an incremental reconciliation: deletes removes installed
// rows by match key, upserts installs new rows or rewrites the action data of
// rows already installed under the same key. Unlike ApplyRowsAtomic it never
// writes unchanged entries, so a converged round costs O(delta) writes.
//
// The operation is transactional: on any failure — a write-hook error, a
// capacity overflow, or a delete whose key is not installed (ErrDeltaConflict,
// meaning the caller's shadow copy is stale and a full reconciliation is
// required) — the table is left exactly as before the call. Duplicate keys
// in deletes consume one installed entry each. On success the end state is
// identical to the equivalent full ApplyRowsAtomic, generation advances, and
// writes counts physical row operations (deletes + inserts + data rewrites;
// an upsert whose data is already installed costs nothing).
func (t *Table) ApplyDelta(upserts, deletes []Row) (writes int, err error) {
	for _, r := range upserts {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	for _, r := range deletes {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tx := t.beginLocked()
	keys := newKeyIndex(t.ordered)
	// Deletes first, freeing capacity for the inserts.
	for _, r := range deletes {
		k := matchKey(r.Fields, r.Priority)
		e, ok := keys.take(k)
		if !ok {
			tx.rollback()
			return 0, fmt.Errorf("%w: delete of %v priority %d not installed in table %q", ErrDeltaConflict, r.Fields, r.Priority, t.name)
		}
		if err := tx.remove(e); err != nil {
			return 0, err
		}
	}
	for _, r := range upserts {
		k := matchKey(r.Fields, r.Priority)
		if e, ok := keys.peek(k); ok {
			if err := tx.update(e, r.Data); err != nil {
				return 0, err
			}
			continue
		}
		if n := tx.size(); t.capacity > 0 && n >= t.capacity {
			tx.rollback()
			return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: n, Requested: 1}
		}
		e, err := tx.insert(r)
		if err != nil {
			return 0, err
		}
		keys.add(k, e)
	}
	return tx.commit(), nil
}

// commitTx stages one bulk commit. Each row operation consults the write
// hook and the counters as it goes, but the entry set and the resolution
// order change only in commit, so a rollback has just the data rewrites,
// the counters and the ID sequence to undo. A failing operation rolls back
// before it returns its error.
type commitTx struct {
	t       *Table
	dels    []*Entry
	ins     []*Entry
	undo    []dataUndo
	nextID  int
	nextSeq int
	inserts uint64
	deletes uint64
	updates uint64
	writes  int
}

// dataUndo records one action rewrite for rollback.
type dataUndo struct {
	e   *Entry
	old any
}

// beginLocked opens a commit; t.mu must be held until it commits or rolls
// back.
func (t *Table) beginLocked() *commitTx {
	return &commitTx{
		t: t, nextID: t.nextID, nextSeq: t.nextSeq,
		inserts: t.stats.inserts.Load(),
		deletes: t.stats.deletes.Load(),
		updates: t.stats.updates.Load(),
	}
}

// size is the entry count the table will hold if the commit lands.
func (tx *commitTx) size() int { return len(tx.t.entries) - len(tx.dels) + len(tx.ins) }

// remove stages the delete of installed entry e.
func (tx *commitTx) remove(e *Entry) error {
	if err := tx.t.writeLocked(WriteDelete); err != nil {
		tx.rollback()
		return err
	}
	tx.dels = append(tx.dels, e)
	tx.t.stats.deletes.Add(1)
	tx.writes++
	return nil
}

// update rewrites e's action data unless it already holds data.
func (tx *commitTx) update(e *Entry, data any) error {
	if dataEqual(e.Data, data) {
		return nil
	}
	if err := tx.t.writeLocked(WriteUpdate); err != nil {
		tx.rollback()
		return err
	}
	tx.undo = append(tx.undo, dataUndo{e: e, old: e.Data})
	e.Data = data
	tx.t.stats.updates.Add(1)
	tx.writes++
	return nil
}

// insert stages a new entry for r.
func (tx *commitTx) insert(r Row) (*Entry, error) {
	if err := tx.t.writeLocked(WriteInsert); err != nil {
		tx.rollback()
		return nil, err
	}
	e := tx.t.newEntryLocked(r.Fields, r.Priority, r.Data)
	tx.ins = append(tx.ins, e)
	tx.t.stats.inserts.Add(1)
	tx.writes++
	return e, nil
}

// commit installs the staged deletes and inserts, advances the generation,
// and returns the commit's row writes.
func (tx *commitTx) commit() int {
	t := tx.t
	for _, e := range tx.dels {
		delete(t.entries, e.ID)
	}
	for _, e := range tx.ins {
		t.entries[e.ID] = e
	}
	t.reorderLocked(tx.dels, tx.ins)
	t.generation++
	t.dirtyLocked()
	return tx.writes
}

// rollback undoes the staged commit. Like any mutation attempt it advances
// Version (see doc.go), although the contents end as they began.
func (tx *commitTx) rollback() {
	t := tx.t
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].e.Data = tx.undo[i].old
	}
	t.nextID, t.nextSeq = tx.nextID, tx.nextSeq
	t.stats.inserts.Store(tx.inserts)
	t.stats.deletes.Store(tx.deletes)
	t.stats.updates.Store(tx.updates)
	t.dirtyLocked()
}

// keyIndex finds installed entries by match key for the bulk
// reconciliations. Keys are unique in every population the control plane
// builds, so one map entry per key holds the entry first in resolution
// order; the rare later duplicates wait in more.
type keyIndex struct {
	first map[string]*Entry
	more  map[string][]*Entry
}

func newKeyIndex(ordered []*Entry) keyIndex {
	x := keyIndex{first: make(map[string]*Entry, len(ordered))}
	for _, e := range ordered {
		x.add(e.key, e)
	}
	return x
}

// add files e under k, after any entry already there.
func (x *keyIndex) add(k string, e *Entry) {
	if _, ok := x.first[k]; !ok {
		x.first[k] = e
		return
	}
	if x.more == nil {
		x.more = make(map[string][]*Entry)
	}
	x.more[k] = append(x.more[k], e)
}

// peek returns the first entry under k.
func (x *keyIndex) peek(k string) (*Entry, bool) {
	e, ok := x.first[k]
	return e, ok
}

// take removes and returns the first entry under k.
func (x *keyIndex) take(k string) (*Entry, bool) {
	e, ok := x.first[k]
	if !ok {
		return nil, false
	}
	if rest := x.more[k]; len(rest) > 0 {
		x.first[k] = rest[0]
		x.more[k] = rest[1:]
	} else {
		delete(x.first, k)
	}
	return e, true
}

// holds reports whether e is still filed (not taken).
func (x *keyIndex) holds(e *Entry) bool {
	if x.first[e.key] == e {
		return true
	}
	for _, o := range x.more[e.key] {
		if o == e {
			return true
		}
	}
	return false
}

// matchKey serialises an entry's match fields and priority for diffing:
// the raw value and mask words of each field, then the priority, as
// little-endian bytes. Equal keys mean equal fields and priority.
func matchKey(fields []Field, priority int) string {
	var buf [4*16 + 8]byte
	b := buf[:0]
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(b, f.Value)
		b = binary.LittleEndian.AppendUint64(b, f.Mask)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(priority))
	return string(b)
}

// dataEqual compares action data without panicking on non-comparable types.
func dataEqual(a, b any) bool {
	return reflect.DeepEqual(a, b)
}

// Row is the insert-time description of an entry, used by the bulk
// reconciliations.
type Row struct {
	Fields   []Field
	Priority int
	Data     any
}

// RowFromPrefix builds a single-field Row from a prefix.
func RowFromPrefix(p bitstr.Prefix, data any) Row {
	return Row{Fields: []Field{FieldFromPrefix(p)}, Data: data}
}

// String renders a short human-readable summary.
func (t *Table) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "tcam %q: %d", t.name, len(t.entries))
	if t.capacity > 0 {
		fmt.Fprintf(&b, "/%d", t.capacity)
	}
	b.WriteString(" entries")
	return b.String()
}
