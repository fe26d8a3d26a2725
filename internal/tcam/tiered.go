// TieredStore: a Store that splits one logical population across a bounded
// TCAM slice and an SRAM spill tier.
//
// ADA's population quality is capped by how many calculation rows the TCAM
// budget admits, yet the rows are plain prefix intervals — the cold tail
// resolves just as correctly from a dense SRAM interval structure (sram.go)
// as from ternary cells. A TieredStore therefore keeps the hottest rows in a
// real *Table of tcamEntries capacity and spills the rest into an sramTier,
// multiplying the effective entry budget at unchanged TCAM cost. Lookups
// consult the TCAM tier first and fall through to SRAM on a miss; because
// ADA populations tile the operand domain disjointly, at most one tier can
// match any key and the combined resolution is bit-identical to a single
// Table holding the union (the differential tests pin this).
//
// The mutation surface mirrors Table's contracts exactly: ApplyRowsAtomic
// and ApplyDelta are all-or-nothing across both tiers (the TCAM tier — the
// only one that can fail — commits transactionally first; the SRAM half is
// staged up front and cannot fail), Fingerprint/ReadRows digest the union in
// Table's canonical format, and the returned write counts cover TCAM row
// writes only. SRAM row writes accumulate separately and are drained with
// TakeSRAMWrites, so the control plane can charge the two memories at their
// real, very different costs.
//
// Tier placement is a control-plane decision: Rebalance ranks every row by a
// caller-supplied heat score (derived from the same per-bin hit registers
// Algorithm 2 reads) and moves rows between tiers so the TCAM slice holds
// the hottest ones. Placement changes which memory serves a row, never the
// row itself, so it advances the internal snapshot sequence but not the
// externally visible Version — a controller shadow guarded by Version keeps
// trusting its copy across placement rounds.
package tcam

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// TierMoves summarises one Rebalance pass.
type TierMoves struct {
	// Promotions counts rows moved SRAM → TCAM.
	Promotions int
	// Demotions counts rows moved TCAM → SRAM.
	Demotions int
	// TCAMWrites counts the physical TCAM row writes the moves cost; the
	// SRAM-side writes are drained via TakeSRAMWrites.
	TCAMWrites int
}

// RowHeat scores one logical row's observed hit mass; Rebalance ranks rows
// by it, hottest into the TCAM tier. The control plane derives it from the
// monitoring trie's per-bin hit registers.
type RowHeat func(fields []Field, priority int) uint64

// tieredSnap is one immutable combined snapshot: the hot tier's compiled
// index, the cold tier's compiled index with pre-offset ordinals, and the
// union entry/payload arrays batch lookups hand out.
type tieredSnap struct {
	seq     uint64
	token   uint64 // monotonic snapshot generation (Store.LookupSnapshot)
	hot     *index
	cold    *sramIndex
	entries []*Entry
	vals    []uint64
	typed   bool
}

func (sn *tieredSnap) lookupOrd(keys []uint64) int32 {
	if ord := sn.hot.lookupOrd(keys); ord >= 0 {
		return ord
	}
	return sn.cold.lookupOrd(keys)
}

func (sn *tieredSnap) lookup(keys []uint64) *Entry {
	if ord := sn.lookupOrd(keys); ord >= 0 {
		return sn.entries[ord]
	}
	return nil
}

// TieredStore is a Store backed by a bounded TCAM slice plus an SRAM spill
// tier. It is safe for concurrent use; lookups are lock-free against the
// combined snapshot.
type TieredStore struct {
	mu sync.Mutex // serialises mutation, placement, and tier-consistent reads

	name     string
	widths   []int
	capacity int // combined budget across both tiers; 0 = unbounded
	hot      *Table
	cold     *sramTier

	// version and seq follow the package's Version / snapshot-generation
	// contract (see the package doc): seq additionally advances on tier
	// placement and tampering, which Version must not notice.
	version atomic.Uint64
	seq     atomic.Uint64
	snapGen atomic.Uint64 // tokens handed to combined snapshots, monotonic
	snap    atomic.Pointer[tieredSnap]
	snapMu  sync.Mutex // serialises snapshot rebuilds

	sramWrites atomic.Uint64
	promotions atomic.Uint64
	demotions  atomic.Uint64

	// residentScratch is placeLocked's reusable TCAM-residency count map,
	// cleared in place each reconcile instead of reallocated (guarded by mu).
	residentScratch map[string]int
}

var (
	_ Store    = (*TieredStore)(nil)
	_ Tamperer = (*TieredStore)(nil)
)

// NewTiered creates a tiered store: a TCAM slice bounded at tcamEntries rows
// plus an SRAM tier holding the spill, with capacity bounding the two tiers
// together (0 = unbounded SRAM behind a bounded TCAM).
func NewTiered(name string, tcamEntries, capacity int, fieldWidths ...int) (*TieredStore, error) {
	if tcamEntries < 1 {
		return nil, fmt.Errorf("tcam: tiered store %q needs a positive TCAM budget, got %d", name, tcamEntries)
	}
	if capacity > 0 && capacity < tcamEntries {
		return nil, fmt.Errorf("tcam: tiered store %q capacity %d below its TCAM budget %d", name, capacity, tcamEntries)
	}
	hot, err := New(name+".tcam", tcamEntries, fieldWidths...)
	if err != nil {
		return nil, err
	}
	return &TieredStore{
		name:     name,
		widths:   hot.fieldWidths,
		capacity: capacity,
		hot:      hot,
		cold:     newSRAMTier(hot.fieldWidths),
	}, nil
}

// Name returns the store name.
func (s *TieredStore) Name() string { return s.name }

// Capacity returns the combined two-tier entry limit (0 = unbounded).
func (s *TieredStore) Capacity() int { return s.capacity }

// TCAMBudget returns the hot tier's row budget.
func (s *TieredStore) TCAMBudget() int { return s.hot.capacity }

// Len returns the number of installed rows across both tiers.
func (s *TieredStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hot.Len() + s.cold.len()
}

// HotLen returns the rows currently resident in the TCAM tier.
func (s *TieredStore) HotLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hot.Len()
}

// ColdLen returns the rows currently spilled to the SRAM tier.
func (s *TieredStore) ColdLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cold.len()
}

// FieldWidths returns a copy of the declared per-field widths.
func (s *TieredStore) FieldWidths() []int { return s.hot.FieldWidths() }

// Version returns the mutation counter per the package's Version contract;
// placement and tampering do not advance it.
func (s *TieredStore) Version() uint64 { return s.version.Load() }

// Promotions returns the cumulative SRAM → TCAM row moves.
func (s *TieredStore) Promotions() uint64 { return s.promotions.Load() }

// Demotions returns the cumulative TCAM → SRAM row moves.
func (s *TieredStore) Demotions() uint64 { return s.demotions.Load() }

// TakeSRAMWrites drains the SRAM row-write counter accumulated since the
// last call: populate spills, delta updates, and tier moves alike.
func (s *TieredStore) TakeSRAMWrites() int { return int(s.sramWrites.Swap(0)) }

// bumpLocked records a Store-API mutation attempt; s.mu must be held.
func (s *TieredStore) bumpLocked() {
	s.version.Add(1)
	s.seq.Add(1)
}

// loadSnap returns the combined snapshot for the current contents,
// rebuilding when a mutation, placement, or hot-tier tamper invalidated it.
func (s *TieredStore) loadSnap() *tieredSnap {
	if sn := s.snap.Load(); sn != nil && sn.seq == s.seq.Load() && sn.hot.version == s.hot.idxSeq.Load() {
		return sn
	}
	return s.rebuildSnap()
}

func (s *TieredStore) rebuildSnap() *tieredSnap {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if sn := s.snap.Load(); sn != nil && sn.seq == s.seq.Load() && sn.hot.version == s.hot.idxSeq.Load() {
		return sn
	}
	// Hold the store lock so the two tiers compile from one committed state,
	// never a torn mid-mutation view.
	s.mu.Lock()
	seq := s.seq.Load()
	hix := s.hot.loadIndex()
	cix := s.cold.compile(int32(len(hix.entries)))
	s.mu.Unlock()

	entries := make([]*Entry, 0, len(hix.entries)+len(cix.entries))
	entries = append(entries, hix.entries...)
	entries = append(entries, cix.entries...)
	typed := hix.typed && cix.typed
	var vals []uint64
	if typed {
		vals = make([]uint64, 0, len(entries))
		vals = append(vals, hix.payload...)
		vals = append(vals, cix.payload...)
	}
	sn := &tieredSnap{seq: seq, token: s.snapGen.Add(1), hot: hix, cold: cix,
		entries: entries, vals: vals, typed: typed}
	s.snap.Store(sn)
	return sn
}

// LookupSnapshot implements Store.LookupSnapshot over the combined two-tier
// snapshot. The token advances whenever the snapshot recompiles — content
// mutations, tier re-placement, and tampering in either tier — so cached
// ordinals never outlive the entry/payload arrays they index.
func (s *TieredStore) LookupSnapshot() (Payloads, uint64) {
	sn := s.loadSnap()
	return Payloads{entries: sn.entries, vals: sn.vals, typed: sn.typed}, sn.token
}

// Lookup resolves one key tuple: the TCAM tier wins, the SRAM tier serves
// its misses. Lock-free against the combined snapshot.
func (s *TieredStore) Lookup(keys ...uint64) (*Entry, bool) {
	if len(keys) != len(s.widths) {
		return nil, false
	}
	if e := s.loadSnap().lookup(keys); e != nil {
		return e, true
	}
	return nil, false
}

// LookupIndexBatch is the zero-allocation hot path over the combined
// snapshot: packed key tuples resolve to dense ordinals spanning both tiers
// (hot rows first), with the same ordinal/payload pairing contract as
// Table.LookupIndexBatch.
func (s *TieredStore) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, Payloads) {
	arity := len(s.widths)
	n := len(flat) / arity
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int32, n)
	}
	sn := s.loadSnap()
	for i := 0; i < n; i++ {
		dst[i] = sn.lookupOrd(flat[i*arity : (i+1)*arity])
	}
	return dst, Payloads{entries: sn.entries, vals: sn.vals, typed: sn.typed}
}

func (s *TieredStore) validateRows(rows []Row) error {
	for _, r := range rows {
		if err := s.hot.validateFields(r.Fields); err != nil {
			return err
		}
	}
	return nil
}

// placeLocked splits a full target population across the tiers: rows whose
// match key is already resident in the TCAM tier stay there (sticky, so a
// converged reconcile causes no tier churn), remaining TCAM slots fill in
// row order, and everything else spills to SRAM. s.mu must be held.
func (s *TieredStore) placeLocked(rows []Row) (hotRows, coldRows []Row) {
	budget := s.hot.capacity
	if s.residentScratch == nil {
		s.residentScratch = make(map[string]int, s.hot.Len())
	}
	resident := s.residentScratch
	clear(resident)
	for _, e := range s.hot.Entries() {
		resident[e.key]++
	}
	sticky := make([]bool, len(rows))
	n := 0
	for i, r := range rows {
		k := matchKey(r.Fields, r.Priority)
		if c := resident[k]; c > 0 && n < budget {
			resident[k] = c - 1
			sticky[i] = true
			n++
		}
	}
	for i, r := range rows {
		switch {
		case sticky[i]:
			hotRows = append(hotRows, r)
		case n < budget:
			hotRows = append(hotRows, r)
			n++
		default:
			coldRows = append(coldRows, r)
		}
	}
	return hotRows, coldRows
}

// ApplyRowsAtomic reconciles both tiers toward rows with minimal writes,
// all-or-nothing: the TCAM tier commits transactionally first, and the SRAM
// reconcile that follows cannot fail. Returns TCAM row writes; SRAM writes
// accumulate for TakeSRAMWrites.
func (s *TieredStore) ApplyRowsAtomic(rows []Row) (writes int, err error) {
	if err := s.validateRows(rows); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.bumpLocked()
	if s.capacity > 0 && len(rows) > s.capacity {
		return 0, &CapacityError{Table: s.name, Capacity: s.capacity,
			Installed: s.hot.Len() + s.cold.len(), Requested: len(rows)}
	}
	hotRows, coldRows := s.placeLocked(rows)
	writes, err = s.hot.ApplyRowsAtomic(hotRows)
	if err != nil {
		return 0, err
	}
	s.sramWrites.Add(uint64(s.cold.replace(coldRows)))
	return writes, nil
}

// ApplyDelta applies an incremental reconciliation across both tiers,
// transactionally: the split is staged without touching either tier, so a
// conflict (a delete not installed in either tier — ErrDeltaConflict) or a
// capacity refusal leaves the store exactly as before. Deletes consume the
// TCAM tier first; new rows take free TCAM slots before spilling to SRAM.
// Returns TCAM row writes; SRAM writes accumulate for TakeSRAMWrites.
func (s *TieredStore) ApplyDelta(upserts, deletes []Row) (writes int, err error) {
	if err := s.validateRows(upserts); err != nil {
		return 0, err
	}
	if err := s.validateRows(deletes); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.bumpLocked()

	hotCount := make(map[string]int, s.hot.Len())
	for _, e := range s.hot.Entries() {
		hotCount[e.key]++
	}
	hotLen, coldLen := s.hot.Len(), s.cold.len()

	var hotDel, coldDel []Row
	coldConsumed := make(map[string]int)
	for _, r := range deletes {
		k := matchKey(r.Fields, r.Priority)
		switch {
		case hotCount[k] > 0:
			hotCount[k]--
			hotDel = append(hotDel, r)
		case s.cold.count(k)-coldConsumed[k] > 0:
			coldConsumed[k]++
			coldDel = append(coldDel, r)
		default:
			return 0, fmt.Errorf("%w: delete of %q not installed in tiered store %q",
				ErrDeltaConflict, k, s.name)
		}
	}
	newHot, newCold := hotLen-len(hotDel), coldLen-len(coldDel)

	var hotUp, coldUp []Row
	inserted := 0
	coldPresent := make(map[string]bool)
	for _, r := range upserts {
		k := matchKey(r.Fields, r.Priority)
		switch {
		case hotCount[k] > 0:
			hotUp = append(hotUp, r)
		case coldPresent[k] || s.cold.count(k)-coldConsumed[k] > 0:
			coldUp = append(coldUp, r)
		case newHot < s.hot.capacity:
			hotUp = append(hotUp, r)
			hotCount[k]++
			newHot++
			inserted++
		default:
			coldUp = append(coldUp, r)
			coldPresent[k] = true
			newCold++
			inserted++
		}
	}
	if s.capacity > 0 && newHot+newCold > s.capacity {
		return 0, &CapacityError{Table: s.name, Capacity: s.capacity,
			Installed: hotLen + coldLen, Requested: inserted}
	}

	writes, err = s.hot.ApplyDelta(hotUp, hotDel)
	if err != nil {
		return 0, err
	}
	s.sramWrites.Add(uint64(s.cold.applyDelta(coldUp, coldDel)))
	return writes, nil
}

// Fingerprint digests the union of both tiers in Table's canonical format:
// a TieredStore and a pure Table holding the same logical population
// fingerprint byte-identically, which is what the tier-differential tests
// and the audit layer rely on.
func (s *TieredStore) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.hot.Len()+s.cold.len())
	for _, e := range s.hot.Entries() {
		keys = append(keys, e.key+"="+fmt.Sprint(e.Data))
	}
	for _, e := range s.cold.rows {
		keys = append(keys, e.key+"="+fmt.Sprint(e.Data))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// ReadRows reads back the physically installed rows of both tiers, sorted
// by match key — including rows silently tampered into either tier.
func (s *TieredStore) ReadRows() ([]RowDigest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := s.hot.ReadRows()
	if err != nil {
		return nil, err
	}
	for _, e := range s.cold.rows {
		fs := make([]Field, len(e.Fields))
		copy(fs, e.Fields)
		out = append(out, RowDigest{Key: e.key, Fields: fs, Priority: e.Priority, Data: e.Data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// AuditFingerprint digests the read-back rows of both tiers in Fingerprint
// format.
func (s *TieredStore) AuditFingerprint() (string, error) {
	rows, err := s.ReadRows()
	if err != nil {
		return "", err
	}
	return DigestFingerprint(rows), nil
}

// AuditRepair reconciles both tiers toward the expected population with
// minimal writes, all-or-nothing, tolerating ghost rows in either tier.
func (s *TieredStore) AuditRepair(expect []Row) (writes int, err error) {
	return s.ApplyRowsAtomic(expect)
}

// TamperData silently corrupts the action data of the installed row in
// whichever tier holds it; Version stays put, the data plane serves the
// corruption immediately.
func (s *TieredStore) TamperData(fields []Field, priority int, data any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.hot.TamperData(fields, priority, data)
	if err == nil {
		s.seq.Add(1)
		return nil
	}
	if !errors.Is(err, ErrNotFound) {
		return err
	}
	k := matchKey(fields, priority)
	if list := s.cold.byKey[k]; len(list) > 0 {
		list[0].Data = data
		s.seq.Add(1)
		return nil
	}
	return fmt.Errorf("%w: tamper target %q in tiered store %q", ErrNotFound, k, s.name)
}

// TamperInsert silently installs a ghost row, preferring a free TCAM slot
// and spilling to SRAM otherwise, respecting the combined capacity.
func (s *TieredStore) TamperInsert(fields []Field, priority int, data any) error {
	if err := s.hot.validateFields(fields); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := matchKey(fields, priority)
	if s.cold.count(k) > 0 {
		return fmt.Errorf("%w: ghost row %q already installed in tiered store %q",
			ErrDeltaConflict, k, s.name)
	}
	if s.capacity > 0 && s.hot.Len()+s.cold.len() >= s.capacity {
		return &CapacityError{Table: s.name, Capacity: s.capacity,
			Installed: s.hot.Len() + s.cold.len(), Requested: 1}
	}
	if s.hot.Len() < s.hot.capacity {
		if err := s.hot.TamperInsert(fields, priority, data); err != nil {
			return err
		}
	} else {
		// Reject a hot-tier duplicate the same way Table does before
		// spilling the ghost to SRAM.
		if dup := func() bool {
			s.hot.mu.RLock()
			defer s.hot.mu.RUnlock()
			return s.hot.findTamperTargetLocked(fields, priority) != nil
		}(); dup {
			return fmt.Errorf("%w: ghost row %q already installed in tiered store %q",
				ErrDeltaConflict, k, s.name)
		}
		s.cold.insert(Row{Fields: fields, Priority: priority, Data: data})
	}
	s.seq.Add(1)
	return nil
}

// TamperDelete silently drops the installed row from whichever tier holds
// it.
func (s *TieredStore) TamperDelete(fields []Field, priority int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.hot.TamperDelete(fields, priority)
	if err == nil {
		s.seq.Add(1)
		return nil
	}
	if !errors.Is(err, ErrNotFound) {
		return err
	}
	k := matchKey(fields, priority)
	if _, ok := s.cold.remove(k); ok {
		s.seq.Add(1)
		return nil
	}
	return fmt.Errorf("%w: tamper target %q in tiered store %q", ErrNotFound, k, s.name)
}

// Rebalance re-ranks every installed row by heat and moves rows between
// tiers so the TCAM slice holds the hottest ones. Ties keep the incumbent
// tier (hysteresis: equal heat never causes a swap), then break by match
// key for determinism. The TCAM half of the move set commits
// transactionally; on its failure the store is unchanged. A converged
// placement returns zero moves and performs no writes.
//
// Placement advances the snapshot sequence, never Version: the logical
// population is untouched, so Version-guarded controller shadows remain
// valid across placement rounds.
func (s *TieredStore) Rebalance(heat RowHeat) (TierMoves, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	type scored struct {
		row Row
		key string
		h   uint64
		hot bool
	}
	hotEntries := s.hot.Entries()
	all := make([]scored, 0, len(hotEntries)+s.cold.len())
	for _, e := range hotEntries {
		all = append(all, scored{
			row: Row{Fields: e.Fields, Priority: e.Priority, Data: e.Data},
			key: e.key, h: heat(e.Fields, e.Priority), hot: true,
		})
	}
	for _, e := range s.cold.rows {
		all = append(all, scored{
			row: Row{Fields: e.Fields, Priority: e.Priority, Data: e.Data},
			key: e.key, h: heat(e.Fields, e.Priority),
		})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].h != all[j].h {
			return all[i].h > all[j].h
		}
		if all[i].hot != all[j].hot {
			return all[i].hot
		}
		return all[i].key < all[j].key
	})

	want := s.hot.capacity
	if want > len(all) {
		want = len(all)
	}
	var promote, demote []Row
	for _, sc := range all[:want] {
		if !sc.hot {
			promote = append(promote, sc.row)
		}
	}
	for _, sc := range all[want:] {
		if sc.hot {
			demote = append(demote, sc.row)
		}
	}
	if len(promote) == 0 && len(demote) == 0 {
		return TierMoves{}, nil
	}

	tcamWrites, err := s.hot.ApplyDelta(promote, demote)
	if err != nil {
		// The hot tier rolled itself back and the cold tier was never
		// touched; refresh the snapshot (the rollback bumped the hot index)
		// and surface the failure.
		s.seq.Add(1)
		return TierMoves{}, err
	}
	for _, r := range promote {
		s.cold.remove(matchKey(r.Fields, r.Priority))
	}
	for _, r := range demote {
		s.cold.insert(r)
	}
	s.sramWrites.Add(uint64(len(promote) + len(demote)))
	s.promotions.Add(uint64(len(promote)))
	s.demotions.Add(uint64(len(demote)))
	s.seq.Add(1)
	return TierMoves{Promotions: len(promote), Demotions: len(demote), TCAMWrites: tcamWrites}, nil
}
