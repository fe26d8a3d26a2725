// SRAM spill tier for the tiered store (see tiered.go).
//
// Switch pipelines pair a tiny TCAM with orders of magnitude more SRAM.
// MashUp-style tiling exploits that: the wildcard rows a TCAM would hold are
// prefix intervals, and a dense set of disjoint intervals resolves in SRAM
// with a predecessor search — no ternary cells needed. The sramTier below is
// the mutable cold-tail row set; sramIndex is its immutable compiled lookup
// form, rebuilt into the tiered snapshot whenever the contents change
// (mutation-rate work, not lookup-rate).
//
// Resolution must stay bit-identical to a Table holding the same rows. Rows
// are kept in the table's resolution order (sig desc, priority desc, seq
// asc); when the per-field prefix intervals are pairwise disjoint — true of
// every ADA population, which tiles the operand domain — at most one row can
// match a key and the predecessor search returns exactly the reference
// winner. Overlapping or non-prefix rows fall back to a first-match scan in
// resolution order, the same reference path index.go keeps for Tables.
package tcam

import "sort"

// sramTier is the mutable cold tier: the spilled rows in resolution order
// plus a match-key index for reconciliation. All methods require the owning
// TieredStore's mutex; the tier itself has none.
type sramTier struct {
	widths  []int
	rows    []*Entry            // resolution order: sig desc, priority desc, seq asc
	byKey   map[string][]*Entry // match key → installed rows, oldest first
	nextID  int
	nextSeq int
}

func newSRAMTier(widths []int) *sramTier {
	return &sramTier{widths: widths, byKey: make(map[string][]*Entry)}
}

func (s *sramTier) len() int { return len(s.rows) }

func (s *sramTier) count(key string) int { return len(s.byKey[key]) }

// insert installs one row, keeping resolution order.
func (s *sramTier) insert(r Row) {
	fs := make([]Field, len(r.Fields))
	copy(fs, r.Fields)
	sig := 0
	for _, f := range fs {
		sig += f.SigBits()
	}
	s.nextID++
	s.nextSeq++
	e := &Entry{
		ID: s.nextID, Fields: fs, Priority: r.Priority, Data: r.Data,
		sig: sig, seq: s.nextSeq, key: matchKey(fs, r.Priority),
	}
	i := sort.Search(len(s.rows), func(i int) bool { return !less(s.rows[i], e) })
	s.rows = append(s.rows, nil)
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = e
	s.byKey[e.key] = append(s.byKey[e.key], e)
}

// remove drops the oldest row installed under key, returning it for
// promotion into the other tier.
func (s *sramTier) remove(key string) (Row, bool) {
	list := s.byKey[key]
	if len(list) == 0 {
		return Row{}, false
	}
	e := list[0]
	if len(list) == 1 {
		delete(s.byKey, key)
	} else {
		s.byKey[key] = list[1:]
	}
	for i, o := range s.rows {
		if o == e {
			s.rows = append(s.rows[:i], s.rows[i+1:]...)
			break
		}
	}
	return Row{Fields: e.Fields, Priority: e.Priority, Data: e.Data}, true
}

// replace reconciles the tier contents toward rows with minimal row writes
// (same diff ApplyRowsAtomic uses: unchanged rows cost nothing, changed data one
// rewrite, new/stale rows one insert/delete each) and returns the write
// count. It cannot fail: SRAM has no capacity gate here — the owning store
// enforces the combined budget before calling.
func (s *sramTier) replace(rows []Row) (writes int) {
	consumed := make(map[string]int, len(rows))
	var toInsert []Row
	for _, r := range rows {
		k := matchKey(r.Fields, r.Priority)
		list := s.byKey[k]
		idx := consumed[k]
		if idx >= len(list) {
			toInsert = append(toInsert, r)
			continue
		}
		consumed[k] = idx + 1
		if !dataEqual(list[idx].Data, r.Data) {
			list[idx].Data = r.Data
			writes++
		}
	}
	// Keep the consumed prefix of each key's list; everything else is stale.
	keep := make(map[*Entry]bool, len(rows))
	for k, n := range consumed {
		for _, e := range s.byKey[k][:n] {
			keep[e] = true
		}
	}
	if len(keep) < len(s.rows) {
		kept := s.rows[:0]
		for _, e := range s.rows {
			if keep[e] {
				kept = append(kept, e)
			} else {
				writes++
			}
		}
		s.rows = kept
		s.byKey = make(map[string][]*Entry, len(kept))
		for _, e := range kept {
			s.byKey[e.key] = append(s.byKey[e.key], e)
		}
	}
	for _, r := range toInsert {
		s.insert(r)
		writes++
	}
	return writes
}

// applyDelta applies the cold half of a staged delta. The owning store has
// already verified every delete is installed here, so it cannot fail.
func (s *sramTier) applyDelta(upserts, deletes []Row) (writes int) {
	for _, r := range deletes {
		if _, ok := s.remove(matchKey(r.Fields, r.Priority)); ok {
			writes++
		}
	}
	for _, r := range upserts {
		k := matchKey(r.Fields, r.Priority)
		if list := s.byKey[k]; len(list) > 0 {
			if !dataEqual(list[0].Data, r.Data) {
				list[0].Data = r.Data
				writes++
			}
			continue
		}
		s.insert(r)
		writes++
	}
	return writes
}

// sramIvl is one compiled prefix interval [lo, hi] → combined-snapshot slot.
type sramIvl struct {
	lo, hi uint64
	slot   int32
}

// sramIndex is the immutable compiled form of the cold tier at one tiered
// snapshot. Ordinals are pre-offset by the hot tier's entry count so they
// index the combined snapshot directly.
type sramIndex struct {
	entries []*Entry // row copies in resolution order, ord = base + position
	payload []uint64 // dense typed action data, valid when typed
	typed   bool

	// Disjoint-prefix fast paths, mirroring index.go: flat serves one-field
	// tables by predecessor search, xs/ys serve two-field product tables
	// (each x interval owns its sorted y intervals). linear falls back to a
	// first-match scan in resolution order. Keys are masked to the field
	// width first — bits above the width are ignored, as in Field.Matches.
	flat         []sramIvl
	xs           []sramIvl // slot indexes ys
	ys           [][]sramIvl
	maskX, maskY uint64
	linear       bool
}

// fieldIvl converts a prefix-shaped field to its match interval; ok reports
// whether the mask is a prefix mask (wildcard bits strictly below the
// significant ones).
func fieldIvl(f Field, width int) (lo, hi uint64, ok bool) {
	if !maskIsPrefix(f.Mask, width) {
		return 0, 0, false
	}
	return f.Value, f.Value | (lowMask(width) &^ f.Mask), true
}

// searchIvls finds the interval containing key by predecessor search over
// disjoint intervals sorted by lo. Returns the slot or −1.
func searchIvls(ivls []sramIvl, key uint64) int32 {
	base, n := 0, len(ivls)
	if n == 0 {
		return -1
	}
	for n > 1 {
		half := n >> 1
		if ivls[base+half].lo <= key {
			base += half
		}
		n -= half
	}
	if iv := ivls[base]; iv.lo <= key && key <= iv.hi {
		return iv.slot
	}
	return -1
}

// sortIvls orders intervals by lo and reports whether they are pairwise
// disjoint (the precondition for predecessor resolution).
func sortIvls(ivls []sramIvl) bool {
	sort.Slice(ivls, func(i, j int) bool { return ivls[i].lo < ivls[j].lo })
	for i := 1; i < len(ivls); i++ {
		if ivls[i].lo <= ivls[i-1].hi {
			return false
		}
	}
	return true
}

// compile builds the immutable lookup form. base is the hot tier's entry
// count: compiled ordinals start there so the combined snapshot's entry
// array resolves them without translation.
func (s *sramTier) compile(base int32) *sramIndex {
	ix := &sramIndex{typed: true}
	ix.entries = make([]*Entry, len(s.rows))
	ix.payload = make([]uint64, len(s.rows))
	for i, e := range s.rows {
		c := *e
		c.ord = base + int32(i)
		ix.entries[i] = &c
		if ix.typed {
			switch d := c.Data.(type) {
			case uint64:
				ix.payload[i] = d
			case int:
				if d >= 0 {
					ix.payload[i] = uint64(d)
				} else {
					ix.typed = false
				}
			default:
				ix.typed = false
			}
		}
	}
	if !ix.typed {
		ix.payload = nil
	}
	switch len(s.widths) {
	case 1:
		ix.compileFlat(s.widths[0])
	case 2:
		ix.compileGrid(s.widths)
	default:
		ix.linear = true
	}
	return ix
}

// compileFlat builds the one-field predecessor array; any non-prefix mask or
// overlap keeps the linear reference path.
func (ix *sramIndex) compileFlat(width int) {
	flat := make([]sramIvl, len(ix.entries))
	for i, e := range ix.entries {
		lo, hi, ok := fieldIvl(e.Fields[0], width)
		if !ok {
			ix.linear = true
			return
		}
		flat[i] = sramIvl{lo: lo, hi: hi, slot: int32(i)}
	}
	if !sortIvls(flat) {
		ix.linear = true
		return
	}
	ix.flat = flat
	ix.maskX = lowMask(width)
}

// compileGrid builds the two-field form: disjoint x intervals, each owning
// the disjoint y intervals of the rows sharing that x prefix. Product-shaped
// joint populations compile exactly; anything else keeps the linear path.
func (ix *sramIndex) compileGrid(widths []int) {
	type group struct {
		iv sramIvl
		ys []sramIvl
	}
	byX := make(map[uint64]*group)
	var order []uint64
	for i, e := range ix.entries {
		xlo, xhi, ok := fieldIvl(e.Fields[0], widths[0])
		if !ok {
			ix.linear = true
			return
		}
		ylo, yhi, ok := fieldIvl(e.Fields[1], widths[1])
		if !ok {
			ix.linear = true
			return
		}
		g := byX[xlo]
		if g == nil {
			g = &group{iv: sramIvl{lo: xlo, hi: xhi}}
			byX[xlo] = g
			order = append(order, xlo)
		} else if g.iv.hi != xhi {
			// Same start, different x prefix: nested intervals.
			ix.linear = true
			return
		}
		g.ys = append(g.ys, sramIvl{lo: ylo, hi: yhi, slot: int32(i)})
	}
	xs := make([]sramIvl, 0, len(order))
	ys := make([][]sramIvl, 0, len(order))
	for _, xlo := range order {
		g := byX[xlo]
		if !sortIvls(g.ys) {
			ix.linear = true
			return
		}
		xs = append(xs, sramIvl{lo: g.iv.lo, hi: g.iv.hi, slot: int32(len(ys))})
		ys = append(ys, g.ys)
	}
	if !sortIvls(xs) {
		ix.linear = true
		return
	}
	ix.xs, ix.ys = xs, ys
	ix.maskX, ix.maskY = lowMask(widths[0]), lowMask(widths[1])
}

// lookupOrd resolves a key tuple to the winning row's combined-snapshot
// ordinal, or −1 on a miss. The caller has already arity-checked keys.
func (ix *sramIndex) lookupOrd(keys []uint64) int32 {
	if ix.linear {
		for _, e := range ix.entries {
			if matchAll(e.Fields, keys) {
				return e.ord
			}
		}
		return -1
	}
	if ix.flat != nil {
		if s := searchIvls(ix.flat, keys[0]&ix.maskX); s >= 0 {
			return ix.entries[s].ord
		}
		return -1
	}
	if ix.xs != nil {
		sx := searchIvls(ix.xs, keys[0]&ix.maskX)
		if sx < 0 {
			return -1
		}
		if s := searchIvls(ix.ys[sx], keys[1]&ix.maskY); s >= 0 {
			return ix.entries[s].ord
		}
		return -1
	}
	return -1
}
