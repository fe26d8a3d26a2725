// Hot-key result cache for the typed batch lookup path.
//
// ADA's operand streams are heavily skewed — that is the premise the whole
// population scheme rests on — yet LookupIndexBatch pays a full search
// (range resolve, product grid, keyed partition resolve, or trie walk) for
// every sample, including the same hot keys millions of times between
// control rounds. The mapping a committed round installs is immutable
// until the next snapshot change, so key → ordinal is safely memoizable: a
// LookupCache is a fixed-size, power-of-two, set-associative
// open-addressing cache in front of a store's LookupIndexBatch that serves
// repeat keys from RAM instead of re-searching the ternary structures (the
// CRAM/MashUp offload argument in software form).
//
// The cache stores snapshot ordinals, not payload values. That keeps every
// consumer exact: the ordinal still resolves through the same Payloads view
// the uncached path uses (so corrupt or untyped action data misses
// identically), and monitoring paths that account ordinals into registers
// can keep doing so per sample.
//
// Invalidation is wholesale and implicit. Entries are valid only for the
// snapshot generation they were filled under (see Snapshotter); on any
// mismatch the cache empties itself and refills against the new snapshot.
// Control rounds, audits, repairs, tier re-placement, tenant churn, and
// even silent tampering all advance the snapshot generation, so no caller
// ever needs an explicit flush and a generation bump can never serve stale
// results — the cachebench differential pins this across 500 rounds of
// churn, faults, and crash/restart.
//
// A LookupCache is caller-owned, like arith.Scratch: one per worker, no
// locks on the read path, never shared by concurrent callers. The backing
// store may be mutated concurrently — the generation check makes that safe.
package tcam

import (
	"math/bits"
	"unsafe"
)

// Snapshotter is the optional store surface the cache keys itself on: the
// current compiled snapshot's typed payload view plus a generation token
// that changes whenever that snapshot changes. Two calls returning the same
// token are guaranteed to describe the same immutable snapshot, so ordinals
// obtained under that token remain valid against the returned Payloads.
//
// The token is deliberately not Table.Generation(): the bulk-commit
// generation stands still across single-row writes, audit-discovered
// tampering, and tiered re-placement, all of which change what the data
// plane serves. The snapshot generation advances on every such change.
// *Table, *TieredStore, and tenant slices implement Snapshotter.
type Snapshotter interface {
	LookupSnapshot() (Payloads, uint64)
}

var (
	_ Snapshotter = (*Table)(nil)
	_ Snapshotter = (*TieredStore)(nil)
)

// CacheStats counts a LookupCache's traffic: Hits served from the cache,
// Misses forwarded to the store, and Invalidations (wholesale resets on a
// snapshot-generation change or a rebind to a different store).
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// cacheWays is the set associativity. Four ways packs a whole unary set —
// keys, ordinals, and hit counters — into a single 64-byte cache line while
// making pathological same-set key collisions cheap to absorb.
const cacheWays = 4

// The batch probe loop is unrolled for exactly cacheWays ways.
var _ [cacheWays - 4]struct{}
var _ [4 - cacheWays]struct{}

// cacheSet is one unary associativity set packed into exactly one 64-byte
// cache line: four keys, four ordinals, four hit counters, padding. The
// parallel-array layout this replaces kept keys, ordinals, and counters
// tens of kilobytes apart, so at realistic cache sizes every probe touched
// three L1-hostile lines; packed, a hit touches one.
//
// hits holds one saturating 8-bit counter per way — the admission currency.
// A probe hit earns the resident a point; an admission contest on a full
// set drains one point from the set's least-hit resident and replaces it
// only once it is broke. Hot residents earn faster than the tail can drain
// them, so occupancy converges on the Zipf hot set instead of churning on
// one-hit tail keys, while a resident that has gone cold is drained and
// displaced within a few batches — LFU pressure with built-in aging, no
// shared sketch to maintain.
type cacheSet struct {
	keys [cacheWays]uint64
	ords [cacheWays]int32
	hits [cacheWays]uint8
	_    [12]byte
}

// cacheSet must stay exactly one cache line.
var _ [64 - unsafe.Sizeof(cacheSet{})]byte
var _ [unsafe.Sizeof(cacheSet{}) - 64]byte

// emptySet is a freshly invalidated set: every way free, every counter zero.
var emptySet = cacheSet{keys: [cacheWays]uint64{emptyKey, emptyKey, emptyKey, emptyKey}}

// LookupCache fronts one store's LookupIndexBatch with a generation-keyed
// key → ordinal cache. Construct with NewLookupCache; the zero value is a
// valid pass-through (every call forwards to nothing useful), so callers
// always go through the constructor.
type LookupCache struct {
	store Store
	snap  Snapshotter // nil: store cannot be cached, pass through
	arity int         // 1 (unary) or 2 (binary product-grid keys)

	shift uint       // 64 - log2(sets); hashes map to a set index
	sets  []cacheSet // unary layout: one packed cache line per set
	gen   uint64     // snapshot generation the live entries were filled under

	// Binary product-grid layout: a two-word key quadruplet does not fit
	// the packed 64-byte line, and the binary path is not the hot one, so
	// it keeps parallel arrays. ords holds ordinals verbatim (−1 is a
	// cached store miss); emptyKey in keys marks a free way; hits is the
	// per-way admission counter described on cacheSet.
	keys []uint64
	ords []int32
	hits []uint8

	stats CacheStats

	// keyMask is set when the backing store is a single-field *Table too
	// wide for the dense LUT: its range set resolves by predecessor search,
	// which resolves an ascending batch in one sweep of the range array
	// instead of bisecting all of it per key, so the misses are sorted
	// first. It is the field's width mask. missSorted holds one batch's
	// misses packed as (masked key, miss index), sorted.
	keyMask    uint64
	missSorted []uint64
	radixTmp   []uint64

	// fallback scratch: the keys of one batch that missed the cache, their
	// positions in the batch, the set base their probe already computed,
	// and the store's ordinals for them.
	missFlat []uint64
	missPos  []int32
	missSlot []int32
	missOrds []int32
}

// emptyKey marks an unoccupied way. All-ones cannot be a real key for any
// field narrower than 64 bits, so probes test occupancy and key equality in
// one compare; stores with a full-width 64-bit field fall back to
// pass-through rather than lose that code point.
const emptyKey = ^uint64(0)

// NewLookupCache builds a cache of at least `entries` slots (rounded up to
// a power of two, minimum one set of cacheWays ways) in front of store. A
// store that does not implement Snapshotter, has more than two key fields,
// or has a 64-bit key field, yields a pass-through cache: LookupIndexBatch
// forwards verbatim and Stats stays zero. entries <= 0 also yields a
// pass-through.
func NewLookupCache(store Store, entries int) *LookupCache {
	widths := store.FieldWidths()
	c := &LookupCache{store: store, arity: len(widths)}
	snap, ok := store.(Snapshotter)
	if !ok || entries <= 0 || c.arity < 1 || c.arity > 2 {
		return c
	}
	for _, w := range widths {
		if w >= 64 {
			return c
		}
	}
	if entries < cacheWays {
		entries = cacheWays
	}
	slots := 1 << bits.Len(uint(entries-1)) // next power of two
	sets := slots / cacheWays
	c.snap = snap
	c.shift = uint(64 - bits.Len(uint(sets-1)))
	if c.arity == 1 {
		c.sets = make([]cacheSet, sets)
		for i := range c.sets {
			c.sets[i] = emptySet
		}
		if _, ok := store.(*Table); ok && widths[0] > lutMaxBits {
			c.keyMask = lowMask(widths[0])
		}
		return c
	}
	c.keys = make([]uint64, slots*2)
	for i := range c.keys {
		c.keys[i] = emptyKey
	}
	c.ords = make([]int32, slots)
	c.hits = make([]uint8, slots)
	return c
}

// Store returns the backing store the cache fronts.
func (c *LookupCache) Store() Store { return c.store }

// Enabled reports whether lookups can actually be served from the cache
// (the store implements Snapshotter and a positive size was requested).
func (c *LookupCache) Enabled() bool { return c != nil && c.snap != nil }

// Len returns the slot count (0 for a pass-through cache).
func (c *LookupCache) Len() int {
	if c.arity == 1 {
		return len(c.sets) * cacheWays
	}
	return len(c.ords)
}

// Stats returns the cumulative hit/miss/invalidation counters.
func (c *LookupCache) Stats() CacheStats { return c.stats }

// hash mixes a packed key tuple into a full-width hash. Fibonacci-style odd
// multipliers spread the low operand bits the benchmarks concentrate on
// across the whole word; the top bits select the set, middle bits index the
// admission bitmap.
func (c *LookupCache) hash(k0, k1 uint64) uint64 {
	h := k0 * 0x9E3779B97F4A7C15
	if c.arity == 2 {
		h ^= (k1 + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	}
	return h
}

// invalidate empties the cache wholesale and rebases it on generation gen.
// keys is the only validity marker (emptyKey = free), so one sweep
// re-marking every way suffices; stale ordinals under an empty key are
// never read.
func (c *LookupCache) invalidate(gen uint64) {
	for i := range c.sets {
		c.sets[i] = emptySet
	}
	for i := range c.keys {
		c.keys[i] = emptyKey
	}
	clear(c.hits)
	c.gen = gen
	c.stats.Invalidations++
}

// probe looks one binary key pair up, returning (ordinal, true) on a hit.
// Cached store misses (ordinal −1) are hits too. A hit bumps the way's hit
// counter, which is what keeps hot residents in place: admission contests
// drain it. A free way holds emptyKey, which no real key equals, so the key
// compare alone decides. The unary probe is open-coded in LookupIndexBatch
// against the packed cacheSet layout.
func (c *LookupCache) probe(k0, k1 uint64) (int32, bool) {
	slot := int(c.hash(k0, k1)>>c.shift) * cacheWays
	for w := slot; w < slot+cacheWays; w++ {
		if c.keys[2*w] == k0 && c.keys[2*w+1] == k1 {
			c.bumpHit(w)
			return c.ords[w], true
		}
	}
	return 0, false
}

// transpose promotes the resident at way w one way towards the front of
// its set, swapping with its neighbour. Hits dominate skewed traffic, so
// the hottest residents settle in the first ways and the common probe exits
// after one key compare; promoting by a single position (rather than
// move-to-front) keeps two hot keys sharing a set from ping-ponging.
func (st *cacheSet) transpose(w int) {
	st.keys[w], st.keys[w-1] = st.keys[w-1], st.keys[w]
	st.ords[w], st.ords[w-1] = st.ords[w-1], st.ords[w]
	st.hits[w], st.hits[w-1] = st.hits[w-1], st.hits[w]
}

// bump credits a resident's hit counter for a probe hit. Sampling (every
// k-th hit) was tried here and rejected: thinning the bumps measurably
// weakens the admission signal (hit rate drops 1.5–4.5 points on Zipf
// streams), costing more in extra store searches than the skipped counter
// writes save. A wider TinyLFU-style frequency sketch shared with
// non-residents was likewise tried and rejected: its random 64 KB counter
// access on every hit cost more than its extra hit-rate bought back.
func (st *cacheSet) bump(w int) {
	if f := &st.hits[w]; *f < 255 {
		*f++
	}
}

// bumpHit is bump for the binary parallel-array layout.
func (c *LookupCache) bumpHit(w int) {
	if f := &c.hits[w]; *f < 255 {
		*f++
	}
}

// insert fills (or refreshes) one key tuple's ordinal. An empty way is
// taken freely, but evicting from a full set is an admission contest:
// under a Zipf tail every miss wants in, and unconditional replacement
// would turn the whole cache over between batches, evicting the hot set it
// exists to keep. Instead each contest drains one hit point from the set's
// least-hit resident and admits the newcomer only once that resident is
// broke. One-hit tail keys nudge a counter and leave; a resident serving
// real hits earns points faster than the tail can drain them, while a
// resident that has gone cold drains to zero and is displaced within a few
// batches — LFU pressure with built-in aging, no shared sketch to maintain.
func (c *LookupCache) insert(k0, k1 uint64, ord int32) {
	slot := int(c.hash(k0, k1)>>c.shift) * cacheWays
	victim := -1
	for w := slot; w < slot+cacheWays; w++ {
		switch {
		case c.keys[2*w] == emptyKey:
			if victim < 0 {
				victim = w
			}
		case c.keys[2*w] == k0 && c.keys[2*w+1] == k1:
			c.ords[w] = ord
			return
		}
	}
	if victim < 0 {
		vh := uint8(255)
		for w := slot; w < slot+cacheWays; w++ {
			if wh := c.hits[w]; wh < vh {
				victim, vh = w, wh
			}
		}
		if vh > 0 {
			c.hits[victim] = vh - 1
			return
		}
	}
	c.keys[2*victim], c.keys[2*victim+1] = k0, k1
	c.ords[victim] = ord
	c.hits[victim] = 0
}

// LookupIndexBatch is the cached drop-in for Store.LookupIndexBatch: same
// packed-key input, same dense-ordinal output, same ordinal/payload pairing
// contract, bit-identical results. Keys whose ordinal is cached under the
// current snapshot generation skip the store search entirely (misses are
// cached too); the rest resolve through one store batch lookup and refill
// the cache. If the snapshot generation moves mid-batch — a control round
// committing under a concurrent reader — the whole batch re-resolves
// uncached against one store snapshot, exactly what the uncached path would
// have served.
func (c *LookupCache) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, Payloads) {
	if c.snap == nil {
		return c.store.LookupIndexBatch(flat, dst)
	}
	arity := c.arity
	n := len(flat) / arity
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]int32, n)
	}
	pay, gen := c.snap.LookupSnapshot()
	if gen != c.gen {
		c.invalidate(gen)
	}
	if cap(c.missFlat) >= n*arity {
		c.missFlat = c.missFlat[:n*arity]
	} else {
		c.missFlat = make([]uint64, n*arity)
	}
	if cap(c.missPos) >= n {
		c.missPos = c.missPos[:n]
		c.missSlot = c.missSlot[:n]
	} else {
		c.missPos = make([]int32, n)
		c.missSlot = make([]int32, n)
	}
	nm := 0
	if arity == 1 {
		// The unary probe is open-coded and unrolled here: at millions of
		// samples per second the call, the tuple return, and append's
		// capacity checks are measurable, and this loop is the whole point
		// of the cache. One compare per way decides — a free way holds
		// emptyKey, which no real key equals.
		//
		// Each key has two candidate sets (two independent odd-multiplier
		// hashes). With one hash the hot keys land in sets Poisson(4)-style
		// and every overflow past cacheWays is an unavoidable conflict
		// miss; the second choice gives an overflowing key an independently
		// placed second home, recovering most of that lost hit rate for two
		// extra compares on the (already expensive) miss path. The binary
		// product-grid path below stays single-hashed — its axes are only
		// √budget deep, so its store searches are cheap enough that extra
		// probe work isn't worth it.
		sets, shift := c.sets, c.shift
		mask := uint64(len(sets) - 1)
		for i, k0 := range flat {
			// The mask is an identity (the shifted hash is already a set
			// index) that lets the compiler drop the bounds checks on the
			// set accesses; way indices are constants into fixed arrays.
			si := (k0 * 0x9E3779B97F4A7C15) >> shift & mask
			st := &sets[si]
			if st.keys[0] == k0 {
				dst[i] = st.ords[0]
				st.bump(0)
				continue
			}
			if st.keys[1] == k0 {
				dst[i] = st.ords[1]
				st.bump(1)
				st.transpose(1)
				continue
			}
			if st.keys[2] == k0 {
				dst[i] = st.ords[2]
				st.bump(2)
				st.transpose(2)
				continue
			}
			if st.keys[3] == k0 {
				dst[i] = st.ords[3]
				st.bump(3)
				st.transpose(3)
				continue
			}
			si2 := (k0 * 0xD6E8FEB86659FD93) >> shift & mask
			st2 := &sets[si2]
			if st2.keys[0] == k0 {
				dst[i] = st2.ords[0]
				st2.bump(0)
				continue
			}
			if st2.keys[1] == k0 {
				dst[i] = st2.ords[1]
				st2.bump(1)
				st2.transpose(1)
				continue
			}
			if st2.keys[2] == k0 {
				dst[i] = st2.ords[2]
				st2.bump(2)
				st2.transpose(2)
				continue
			}
			if st2.keys[3] == k0 {
				dst[i] = st2.ords[3]
				st2.bump(3)
				st2.transpose(3)
				continue
			}
			// Admission is decided now, while both candidate lines are
			// still in L1: the store walk over the miss buffer evicts
			// them, so a fill-time decision pays extra cache misses per
			// miss. missSlot records the chosen global way — a free way in
			// either set, else the least-hit way across both — or -1 when
			// drain-LFU rejects (the victim's counter is decremented here;
			// the fill loop then skips the entry entirely, which in steady
			// state is most cold misses).
			slot := -1
			switch emptyKey {
			case st.keys[0]:
				slot = int(si) * cacheWays
			case st.keys[1]:
				slot = int(si)*cacheWays + 1
			case st.keys[2]:
				slot = int(si)*cacheWays + 2
			case st.keys[3]:
				slot = int(si)*cacheWays + 3
			case st2.keys[0]:
				slot = int(si2) * cacheWays
			case st2.keys[1]:
				slot = int(si2)*cacheWays + 1
			case st2.keys[2]:
				slot = int(si2)*cacheWays + 2
			case st2.keys[3]:
				slot = int(si2)*cacheWays + 3
			default:
				v, vh := int(si)*cacheWays, st.hits[0]
				if h := st.hits[1]; h < vh {
					v, vh = int(si)*cacheWays+1, h
				}
				if h := st.hits[2]; h < vh {
					v, vh = int(si)*cacheWays+2, h
				}
				if h := st.hits[3]; h < vh {
					v, vh = int(si)*cacheWays+3, h
				}
				if h := st2.hits[0]; h < vh {
					v, vh = int(si2)*cacheWays, h
				}
				if h := st2.hits[1]; h < vh {
					v, vh = int(si2)*cacheWays+1, h
				}
				if h := st2.hits[2]; h < vh {
					v, vh = int(si2)*cacheWays+2, h
				}
				if h := st2.hits[3]; h < vh {
					v, vh = int(si2)*cacheWays+3, h
				}
				if vh > 0 {
					sets[v/cacheWays].hits[v%cacheWays] = vh - 1
				} else {
					slot = v
				}
			}
			c.missFlat[nm] = k0
			c.missPos[nm] = int32(i)
			c.missSlot[nm] = int32(slot)
			nm++
		}
	} else {
		for i := 0; i < n; i++ {
			k0, k1 := flat[2*i], flat[2*i+1]
			if ord, ok := c.probe(k0, k1); ok {
				dst[i] = ord
				continue
			}
			c.missFlat[2*nm], c.missFlat[2*nm+1] = k0, k1
			c.missPos[nm] = int32(i)
			nm++
		}
	}
	c.missFlat = c.missFlat[:nm*arity]
	c.missPos = c.missPos[:nm]
	c.stats.Hits += uint64(n - nm)
	c.stats.Misses += uint64(nm)
	if nm == 0 {
		return dst, pay
	}
	sorted := arity == 1 && c.sortMisses(nm)
	mords, _ := c.store.LookupIndexBatch(c.missFlat, c.missOrds)
	c.missOrds = mords
	if _, gen2 := c.snap.LookupSnapshot(); gen2 != gen {
		// The snapshot moved between the probe pass and the store lookup:
		// cached ordinals and fresh ordinals would mix two snapshots. Serve
		// the whole batch from one uncached store call instead and drop the
		// stale fill (the next batch re-bases on the new generation).
		c.invalidate(gen2)
		return c.store.LookupIndexBatch(flat, dst)
	}
	switch {
	case sorted:
		// mords follows the sorted order; the low bits of each packed miss
		// name its place in the miss list.
		idx := uint64(1)<<bits.Len(uint(nm)) - 1
		for r, packed := range c.missSorted {
			c.fillUnary(dst, flat, int(packed&idx), mords[r])
		}
	case arity == 1:
		for j, ord := range mords {
			c.fillUnary(dst, flat, j, ord)
		}
	default:
		for j, p := range c.missPos {
			ord := mords[j]
			dst[p] = ord
			c.insert(c.missFlat[2*j], c.missFlat[2*j+1], ord)
		}
	}
	return dst, pay
}

// fillUnary serves miss j of a unary batch its store ordinal and, when the
// probe pass admitted it, installs it in the way it chose.
func (c *LookupCache) fillUnary(dst []int32, flat []uint64, j int, ord int32) {
	p := c.missPos[j]
	dst[p] = ord
	if slot := int(c.missSlot[j]); slot >= 0 {
		st := &c.sets[slot/cacheWays]
		w := slot % cacheWays
		st.keys[w] = flat[p]
		st.ords[w] = ord
		st.hits[w] = 0
	}
}

// sortMisses rewrites the batch's nm unary misses into ascending order for
// the backing table's ascending sweep, and reports whether it did. Each miss
// is packed as its masked key above its index into the miss list, so one
// sort of plain words orders the keys and carries the way back to each
// miss's position and chosen slot. Misses are the cold tail of the stream —
// scattered keys whose bisections share almost no cache lines — so walking
// them in key order turns most of those cache misses into near neighbours.
// The keys are masked to the field width exactly as the store masks them,
// so the resolved ordinals are the ones the unsorted lookup returns.
func (c *LookupCache) sortMisses(nm int) bool {
	if c.keyMask == 0 || nm < minAscendingBatch {
		return false
	}
	ib := bits.Len(uint(nm))
	if bits.Len64(c.keyMask)+ib > 64 {
		return false
	}
	if cap(c.missSorted) >= nm {
		c.missSorted = c.missSorted[:nm]
		c.radixTmp = c.radixTmp[:nm]
	} else {
		c.missSorted = make([]uint64, nm)
		c.radixTmp = make([]uint64, nm)
	}
	for j, k := range c.missFlat[:nm] {
		c.missSorted[j] = (k&c.keyMask)<<ib | uint64(j)
	}
	radixSort(c.missSorted, c.radixTmp, bits.Len64(c.keyMask)+ib)
	for r, packed := range c.missSorted {
		c.missFlat[r] = packed >> ib
	}
	return true
}

// radixSort sorts a in place, whose values fit in width bits, with
// byte-wide LSD radix passes through tmp (at least len(a) long). The miss
// lists it sorts are random words: a comparison sort mispredicts about half
// its branches on them and costs several times these counting passes.
func radixSort(a, tmp []uint64, width int) {
	src, dst := a, tmp[:len(a)]
	for shift := 0; shift < width; shift += 8 {
		var count [256]int
		for _, v := range src {
			count[byte(v>>uint(shift))]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, v := range src {
			d := byte(v >> uint(shift))
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if (width+7)/8%2 == 1 {
		copy(a, src)
	}
}
