// Compiled read path: a per-version match index swapped in via
// atomic.Pointer so Lookup never takes the table lock.
//
// The hardware TCAM resolves every key in O(1); the software model used to
// pay an O(entries) scan under an exclusive lock per lookup. The index
// compiles the installed entries into a nested binary trie — one trie level
// per key field, walked MSB-first along the key bits — so a lookup costs
// O(total key width) node visits regardless of table size, and any number of
// goroutines can resolve concurrently against the same immutable snapshot.
//
// Resolution is unchanged: every entry whose field prefixes contain the key
// lies on the walked paths, and candidates are compared with the same
// (sig desc, priority desc, seq asc) order the reference scan uses, so the
// index returns bit-identical winners (the differential tests and fuzz
// targets in oracle_test.go pin this against the tcamtest oracle).
//
// Three further compilations serve the zero-allocation hot path:
//
//   - Every snapshot assigns each entry a dense ordinal (its position in
//     resolution order) and, when all action data is integral, a typed
//     payload array payload[ordinal], so batch callers receive plain int32
//     ordinals and resolve results without per-sample interface assertions
//     (see Table.LookupIndexBatch and Payloads).
//   - Tables whose per-field prefixes are pairwise disjoint — monitoring
//     bins tile the domain, calculation populations are trie leaves, and
//     joint binary populations are cross products of two tilings — compile
//     each field to a rangeSet: a dense lookup table (one indexed load per
//     key, no branches to mispredict) when the field is narrow, a sorted
//     range array searched by predecessor otherwise. A single-field lookup
//     is then one resolve; a two-field lookup is two resolves plus a load
//     from a #Xprefixes×#Yprefixes grid of winning ordinals. At most one
//     entry can match a key per disjoint field set, so results are
//     trivially bit-identical to the reference resolution; any overlap
//     (nested prefixes, duplicates) leaves the trie path in place.
//   - Keyed tables — three or more fields, field 0 exact on every entry:
//     the shared tenant table, whose field 0 is the tenant ID — compile to
//     a dense slice of partitions indexed by the field-0 value. A partition
//     holds only the entries carrying its value, drops every field they all
//     wildcard (a unary tenant's unused operand field), and compiles the
//     one or two fields left to the same range set or grid, storing
//     physical ordinals. A lookup is one indexed load on the key's field 0
//     plus that partition's resolve. Only entries whose field 0 equals the
//     key's can match, restricting resolution order to them preserves it,
//     and a field wildcarded on every entry of a partition matches every
//     key, so results stay bit-identical. A partition with overlapping
//     prefixes or more live fields falls back to a trie of its own; the
//     whole-table trie is not built.
//
// Entries with a non-prefix ternary mask (wildcard bits above significant
// bits) cannot be trie-indexed; such tables compile to an immutable
// resolution-ordered snapshot that is linearly scanned — still lock-free,
// same cost as the old path. Every population scheme in this repo emits
// prefix masks, so the fallback exists only for API completeness.
package tcam

import "math/bits"

// idxNode is one trie node. For the last key field, entry holds the best
// (resolution-order first) entry terminating at this node; for earlier
// fields, next roots the trie over the following field for entries whose
// current-field prefix ends here.
type idxNode struct {
	child [2]*idxNode
	next  *idxNode
	entry *Entry
}

// index is an immutable compiled snapshot of the table at one version.
// A snapshot is built entirely under the table's read lock, so it is always
// a committed generation — never a torn intermediate state.
type index struct {
	version uint64
	linear  bool // scan entries in order: fallback for non-prefix masks

	// entries holds the snapshot's entry copies in resolution order; an
	// entry's ordinal (Entry.ord) is its position here.
	entries []*Entry
	// payload is the dense typed action-data array, payload[ordinal], valid
	// when typed is set (every entry's Data is a uint64 or non-negative int).
	payload []uint64
	typed   bool

	// form is the whole-table resolver; it carries the table's widths and
	// compiles nothing else when the table is linear or keyed.
	form

	// Keyed form: parts[v] resolves the keys whose field 0 (masked by
	// idMask) is v, over only the entries carrying v; an empty part (no
	// entry carries v) resolves every key to a miss.
	keyed  bool
	parts  []form
	idMask uint64
}

// form is one compiled resolver over a resolution-ordered entry set: it
// maps a key tuple to the ordinal of the set's winning entry, or −1 on a
// miss. It reads only the key fields it was compiled over, so a keyed
// partition's form skips field 0 and every field its entries all wildcard.
// The first of rset, grid, and root that is set resolves; when none is,
// every key resolves to first (a set whose fields are all wildcarded, or −1
// for an empty set).
type form struct {
	// Disjoint-prefix fast paths. rset resolves key field fx straight to
	// ordinals. For two fields, rsetX/rsetY resolve key fields fx/fy to
	// their prefix slots and grid[slotX*gridNY+slotY] holds the winning
	// ordinal (−1 where no entry pairs the two prefixes). All stay nil when
	// a field's prefixes overlap, leaving the trie.
	fx, fy       int
	rset         *rangeSet
	rsetX, rsetY *rangeSet
	grid         []int32
	gridNY       int

	// root is the nested trie with one level per key field in fields; a
	// level walks widths[fields[level]] key bits.
	root   *idxNode
	fields []int
	widths []int

	first int32
}

// lutMaxBits bounds the dense-LUT form of a rangeSet: a field up to 16 bits
// compiles to at most a 256 KiB int32 table, built in one pass over the
// domain at snapshot-compile time (mutation-rate work, not lookup-rate).
const lutMaxBits = 16

// rangeSet is one field's compiled disjoint prefix set. resolve maps a key
// to the owning prefix's slot, or −1 for a miss. Narrow fields use the
// dense lut (a single indexed load — nothing for the branch predictor to
// miss); wide fields binary-search the sorted range bounds.
type rangeSet struct {
	mask   uint64
	lut    []int32
	lo, hi []uint64
	slot   []int32
}

// resolve maps a key to its slot or −1. Key bits above the field width are
// ignored, matching Field.Matches and the trie walk.
func (r *rangeSet) resolve(key uint64) int32 {
	key &= r.mask
	if r.lut != nil {
		return r.lut[key]
	}
	lo := r.lo
	base, n := 0, len(lo)
	for n > 1 {
		half := n >> 1
		if lo[base+half] <= key {
			base += half
		}
		n -= half
	}
	if lo[base] > key || key > r.hi[base] {
		return -1
	}
	return r.slot[base]
}

// minAscendingBatch is the smallest batch resolveAscending serves: below it
// sorting the keys costs more than the sweep saves, and a lone key
// bisects faster than it gallops.
const minAscendingBatch = 32

// resolveAscending is resolve over a whole batch, for keys whose masked
// values ascend: each search gallops forward from the previous key's range
// and bisects only the bracket it overshoots, so a sorted batch sweeps the
// range array front to back instead of bisecting all of it per key. A key
// below its predecessor restarts from the front, so any order stays
// correct; only the cost depends on the order.
func (r *rangeSet) resolveAscending(keys []uint64, dst []int32) {
	lo, hi, slot := r.lo, r.hi, r.slot
	n := len(lo)
	base := 0 // lo[base] <= every key since the last restart, or base == 0
	prev := uint64(0)
	for i, k := range keys {
		k &= r.mask
		if k < prev {
			base = 0
		}
		prev = k
		step := 1
		for base+step < n && lo[base+step] <= k {
			base += step
			step <<= 1
		}
		for cnt := min(base+step, n) - base; cnt > 1; {
			half := cnt >> 1
			if lo[base+half] <= k {
				base += half
			}
			cnt -= half
		}
		if lo[base] > k || k > hi[base] {
			dst[i] = -1
		} else {
			dst[i] = slot[base]
		}
	}
}

// buildRangeSet compiles [lo[i], hi[i]] → slot[i] after verifying the
// ranges are pairwise disjoint; it returns nil when they overlap. The
// inputs are insertion-sorted in place by range start (prefix sets arrive
// nearly sorted and stay TCAM-scale).
func buildRangeSet(width int, lo, hi []uint64, slot []int32) *rangeSet {
	n := len(lo)
	if n == 0 {
		return nil
	}
	for i := 1; i < n; i++ {
		l, h, s := lo[i], hi[i], slot[i]
		j := i - 1
		for j >= 0 && lo[j] > l {
			lo[j+1], hi[j+1], slot[j+1] = lo[j], hi[j], slot[j]
			j--
		}
		lo[j+1], hi[j+1], slot[j+1] = l, h, s
	}
	for i := 1; i < n; i++ {
		if lo[i] <= hi[i-1] {
			return nil // overlapping prefixes: LPM resolution needs the trie
		}
	}
	r := &rangeSet{mask: lowMask(width), lo: lo, hi: hi, slot: slot}
	if width <= lutMaxBits {
		lut := make([]int32, 1<<uint(width))
		for i := range lut {
			lut[i] = -1
		}
		for i := 0; i < n; i++ {
			for k := lo[i]; k <= hi[i]; k++ {
				lut[k] = slot[i]
			}
		}
		r.lut = lut
		r.lo, r.hi, r.slot = nil, nil, nil
	}
	return r
}

// lowMask returns a mask with the low n bits set, handling n >= 64.
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// maskIsPrefix reports whether mask selects a contiguous run of the top
// bits of a width-bit field (the LPM shape the trie can index).
func maskIsPrefix(mask uint64, width int) bool {
	sig := bits.OnesCount64(mask)
	return mask == lowMask(width)&^lowMask(width-sig)
}

// buildIndex compiles a resolution-ordered entry list. Entries are copied
// into the snapshot so later in-place data rewrites of the live entries
// (ApplyRowsAtomic, ApplyDelta) can never race with a reader holding an old
// snapshot.
func buildIndex(version uint64, widths []int, ordered []*Entry) *index {
	ix := &index{version: version, form: form{widths: widths}}
	ix.entries = make([]*Entry, len(ordered))
	ix.payload = make([]uint64, len(ordered))
	ix.typed = true
	for i, e := range ordered {
		c := *e
		c.ord = int32(i)
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
	trieable := true
	for _, e := range ix.entries {
		for f, fd := range e.Fields {
			if !maskIsPrefix(fd.Mask, widths[f]) {
				trieable = false
				break
			}
		}
		if !trieable {
			break
		}
	}
	if !trieable {
		ix.linear = true
		return ix
	}
	if ix.buildKeyed() {
		return ix
	}
	ix.fields = make([]int, len(widths))
	for f := range ix.fields {
		ix.fields[f] = f
	}
	ix.buildTrie(ix.entries)
	switch len(widths) {
	case 1:
		ix.buildSingle(ix.entries, 0)
	case 2:
		ix.buildGrid(ix.entries, 0, 1)
	}
	return ix
}

// keyedMaxID bounds the dense partition slice of a keyed index: a table
// whose field-0 values reach it keeps the whole-table trie instead. Tenant
// IDs are handed out densely from 1, so the shared tables stay far below it.
const keyedMaxID = 1 << 12

// buildKeyed compiles the keyed form and reports whether it applies: three
// or more key fields with field 0 exact (full mask) on every entry — the
// shape tenant.Partition guarantees with its tenant-ID field. Only entries
// whose field 0 equals the key's can match, and restricting resolution
// order to them preserves it, so each field-0 value's partition compiles
// on its own. A field every entry of a partition wildcards matches every
// key and is dropped; the one or two live fields left (a unary tenant's
// operand, a binary tenant's pair) reuse the private-table range-set and
// grid forms. A partition with overlapping prefixes or more live fields
// falls back to a trie of its own.
func (ix *index) buildKeyed() bool {
	if len(ix.widths) < 3 {
		return false
	}
	full := lowMask(ix.widths[0])
	var maxID uint64
	for _, e := range ix.entries {
		fd := e.Fields[0]
		if fd.Mask != full || fd.Value >= keyedMaxID {
			return false
		}
		maxID = max(maxID, fd.Value)
	}
	groups := make([][]*Entry, maxID+1)
	for _, e := range ix.entries {
		v := e.Fields[0].Value
		groups[v] = append(groups[v], e)
	}
	ix.parts = make([]form, len(groups))
	for v, g := range groups {
		ix.parts[v] = compilePart(g, ix.widths)
	}
	ix.keyed, ix.idMask = true, full
	return true
}

// compilePart compiles one keyed partition: its resolution-ordered entries
// over the fields any of them does not wildcard.
func compilePart(entries []*Entry, widths []int) form {
	f := form{widths: widths, first: -1}
	if len(entries) == 0 {
		return f
	}
	f.first = entries[0].ord
	for fi := 1; fi < len(widths); fi++ {
		for _, e := range entries {
			if e.Fields[fi].Mask != 0 {
				f.fields = append(f.fields, fi)
				break
			}
		}
	}
	switch len(f.fields) {
	case 0:
		return f // every entry matches every key: the first one wins
	case 1:
		f.buildSingle(entries, f.fields[0])
	case 2:
		f.buildGrid(entries, f.fields[0], f.fields[1])
	}
	if f.rset == nil && f.grid == nil {
		f.buildTrie(entries)
	}
	return f
}

// fieldRanges extracts field f's match ranges with each entry's ordinal as
// its slot, the raw material for buildRangeSet.
func fieldRanges(entries []*Entry, f, width int) (lo, hi []uint64, slot []int32) {
	lo = make([]uint64, len(entries))
	hi = make([]uint64, len(entries))
	slot = make([]int32, len(entries))
	for i, e := range entries {
		fd := e.Fields[f]
		lo[i] = fd.Value
		hi[i] = fd.Value | (lowMask(width) &^ fd.Mask)
		slot[i] = e.ord
	}
	return lo, hi, slot
}

// buildSingle compiles the single-field fast path over key field fx: the
// entries' prefixes form the range set and slots are the entries' ordinals.
// Overlapping prefixes (one nested in another, or duplicates) leave rset
// nil.
func (f *form) buildSingle(entries []*Entry, fx int) {
	if len(entries) == 0 {
		return
	}
	lo, hi, slot := fieldRanges(entries, fx, f.widths[fx])
	f.fx = fx
	f.rset = buildRangeSet(f.widths[fx], lo, hi, slot)
}

// buildGrid compiles the two-field fast path over key fields fx and fy for
// product-shaped entry sets (the joint binary populations): each field's
// distinct prefixes must be pairwise disjoint, so a key resolves to at most
// one prefix slot per field, and the winning entry for a (slotX, slotY)
// pair is the resolution-order first entry carrying exactly those prefixes.
func (f *form) buildGrid(entries []*Entry, fx, fy int) {
	if len(entries) == 0 {
		return
	}
	type pref struct{ value, mask uint64 }
	xs := make(map[pref]int32)
	ys := make(map[pref]int32)
	ex := make([]int32, len(entries)) // entry → X slot
	ey := make([]int32, len(entries))
	for i, e := range entries {
		px := pref{e.Fields[fx].Value, e.Fields[fx].Mask}
		sx, ok := xs[px]
		if !ok {
			sx = int32(len(xs))
			xs[px] = sx
		}
		py := pref{e.Fields[fy].Value, e.Fields[fy].Mask}
		sy, ok := ys[py]
		if !ok {
			sy = int32(len(ys))
			ys[py] = sy
		}
		ex[i], ey[i] = sx, sy
	}
	compile := func(m map[pref]int32, width int) *rangeSet {
		lo := make([]uint64, len(m))
		hi := make([]uint64, len(m))
		slot := make([]int32, len(m))
		i := 0
		for p, s := range m {
			lo[i] = p.value
			hi[i] = p.value | (lowMask(width) &^ p.mask)
			slot[i] = s
			i++
		}
		return buildRangeSet(width, lo, hi, slot)
	}
	rx := compile(xs, f.widths[fx])
	if rx == nil {
		return
	}
	ry := compile(ys, f.widths[fy])
	if ry == nil {
		return
	}
	ny := len(ys)
	grid := make([]int32, len(xs)*ny)
	for i := range grid {
		grid[i] = -1
	}
	// Forward fill, first writer wins: entries are in resolution order, so
	// the first entry with a given prefix pair is the one resolution picks.
	for i, e := range entries {
		g := &grid[int(ex[i])*ny+int(ey[i])]
		if *g < 0 {
			*g = e.ord
		}
	}
	f.fx, f.fy = fx, fy
	f.rsetX, f.rsetY, f.grid, f.gridNY = rx, ry, grid, ny
}

// buildTrie threads the resolution-ordered entries through a nested trie
// over f.fields (at least one field).
func (f *form) buildTrie(entries []*Entry) {
	f.root = &idxNode{}
	for _, e := range entries {
		f.insert(e)
	}
}

// insert threads one entry through the nested trie. ordered iteration means
// the first entry reaching a terminal node is the best one for that exact
// match key, so later arrivals (same fields, lower resolution rank) are
// dropped here and never visited at lookup time.
func (f *form) insert(e *Entry) {
	n := f.root
	last := len(f.fields) - 1
	for level, fi := range f.fields {
		fd := e.Fields[fi]
		w := f.widths[fi]
		sig := bits.OnesCount64(fd.Mask)
		for i := 0; i < sig; i++ {
			b := (fd.Value >> uint(w-1-i)) & 1
			if n.child[b] == nil {
				n.child[b] = &idxNode{}
			}
			n = n.child[b]
		}
		if level == last {
			break
		}
		if n.next == nil {
			n.next = &idxNode{}
		}
		n = n.next
	}
	if n.entry == nil {
		n.entry = e
	}
}

// lookup resolves keys (already arity-checked by the caller) to the winning
// entry, or nil on a miss.
func (ix *index) lookup(keys []uint64) *Entry {
	if ord := ix.lookupOrd(keys); ord >= 0 {
		return ix.entries[ord]
	}
	return nil
}

// lookupOrd resolves keys to the winning entry's ordinal, or −1 on a miss.
// It dispatches to the cheapest compiled form the snapshot supports.
func (ix *index) lookupOrd(keys []uint64) int32 {
	switch {
	case ix.keyed:
		return ix.keyedOrd(keys, 0)
	case ix.linear:
		return ix.scanOrd(keys)
	}
	return ix.lookupAt(keys, 0)
}

// keyedOrd resolves the key tuple starting at keys[base] through the keyed
// form: one indexed load on its field 0, then that partition's resolve.
func (ix *index) keyedOrd(keys []uint64, base int) int32 {
	if id := keys[base] & ix.idMask; id < uint64(len(ix.parts)) {
		return ix.parts[id].lookupAt(keys, base)
	}
	return -1
}

// lookupAt resolves the key tuple starting at keys[base] (key field i is
// keys[base+i]) through the form's compiled structure.
func (f *form) lookupAt(keys []uint64, base int) int32 {
	if f.rset != nil {
		return f.rset.resolve(keys[base+f.fx])
	}
	if f.grid != nil {
		sx := f.rsetX.resolve(keys[base+f.fx])
		if sx < 0 {
			return -1
		}
		sy := f.rsetY.resolve(keys[base+f.fy])
		if sy < 0 {
			return -1
		}
		return f.grid[int(sx)*f.gridNY+int(sy)]
	}
	if f.root != nil {
		if e := f.walk(f.root, 0, keys, base); e != nil {
			return e.ord
		}
		return -1
	}
	return f.first
}

// trieLookupOrd resolves keys without the range-compiled fast path: the
// whole-table trie walk, or the linear scan where there is no whole-table
// trie (non-prefix masks, keyed tables). It is both the reference the range
// compilation is measured and differentially tested against and, for
// linear tables, lookupOrd's only path.
func (ix *index) trieLookupOrd(keys []uint64) int32 {
	if ix.root == nil {
		return ix.scanOrd(keys)
	}
	if e := ix.walk(ix.root, 0, keys, 0); e != nil {
		return e.ord
	}
	return -1
}

// scanOrd is the linear scan in resolution order.
func (ix *index) scanOrd(keys []uint64) int32 {
	for _, e := range ix.entries {
		if matchAll(e.Fields, keys) {
			return e.ord
		}
	}
	return -1
}

// walk descends the trie level for key field fields[level] along the key's
// bit path. Every node on the path corresponds to one prefix of the key
// present in the entry set; terminal candidates are compared with the same
// order the reference scan uses.
func (f *form) walk(n *idxNode, level int, keys []uint64, base int) *Entry {
	fi := f.fields[level]
	key, w := keys[base+fi], f.widths[fi]
	lastField := level == len(f.fields)-1
	var best *Entry
	for depth := 0; ; depth++ {
		if lastField {
			if n.entry != nil && (best == nil || less(n.entry, best)) {
				best = n.entry
			}
		} else if n.next != nil {
			if e := f.walk(n.next, level+1, keys, base); e != nil && (best == nil || less(e, best)) {
				best = e
			}
		}
		if depth == w {
			return best
		}
		b := (key >> uint(w-1-depth)) & 1
		if n.child[b] == nil {
			return best
		}
		n = n.child[b]
	}
}
