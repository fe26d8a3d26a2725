// Package bitstr implements the wildcard bit-string (ternary prefix) algebra
// that underlies every TCAM population scheme in ADA.
//
// A Prefix represents a TCAM match pattern of the form used throughout the
// paper: a run of significant (exactly matched) most-significant bits followed
// by don't-care bits, e.g. "01x" for 3-bit operands. Such a pattern matches a
// contiguous, power-of-two-sized, aligned interval of operand values. The
// package provides construction, containment, splitting/merging (trie
// navigation), representative selection, minimal range covers, and parsing of
// the human-readable "01x" notation.
package bitstr

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxWidth is the widest operand supported, in bits. Operands are held in
// uint64 values; 64-bit operands are fully supported.
const MaxWidth = 64

var (
	// ErrWidth reports an operand width outside [1, MaxWidth].
	ErrWidth = errors.New("bitstr: width must be in [1, 64]")
	// ErrBits reports a significant-bit count outside [0, width].
	ErrBits = errors.New("bitstr: significant bits must be in [0, width]")
	// ErrValue reports a value that does not fit in the operand width.
	ErrValue = errors.New("bitstr: value does not fit in width")
	// ErrNoParent reports Parent/Sibling on a width-0 (root) prefix.
	ErrNoParent = errors.New("bitstr: root prefix has no parent")
	// ErrNoChild reports Left/Right on a fully-specified prefix.
	ErrNoChild = errors.New("bitstr: fully specified prefix has no children")
	// ErrRange reports an invalid [lo, hi] range.
	ErrRange = errors.New("bitstr: invalid range")
)

// Prefix is a ternary match pattern: the top Bits bits of a Width-bit operand
// must equal the top Bits bits of Value; the remaining Width-Bits low bits are
// wildcards. The zero Prefix is invalid; construct via New, MustNew, Root, or
// Parse.
type Prefix struct {
	value uint64 // canonical: low (width-bits) bits are zero
	bits  uint8  // number of significant (matched) bits
	width uint8  // operand width in bits
}

// mask returns a mask with the low n bits set, handling n == 64.
func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// New constructs a Prefix over width-bit operands whose top bits significant
// bits equal those of value. Low wildcard bits of value are ignored
// (canonicalised to zero).
func New(value uint64, sigBits, width int) (Prefix, error) {
	if width < 1 || width > MaxWidth {
		return Prefix{}, fmt.Errorf("%w: got %d", ErrWidth, width)
	}
	if sigBits < 0 || sigBits > width {
		return Prefix{}, fmt.Errorf("%w: got %d for width %d", ErrBits, sigBits, width)
	}
	if value&^mask(width) != 0 {
		return Prefix{}, fmt.Errorf("%w: value %#x, width %d", ErrValue, value, width)
	}
	wild := width - sigBits
	return Prefix{value: value &^ mask(wild), bits: uint8(sigBits), width: uint8(width)}, nil
}

// MustNew is New but panics on error. Intended for constants and tests.
func MustNew(value uint64, sigBits, width int) Prefix {
	p, err := New(value, sigBits, width)
	if err != nil {
		panic(err)
	}
	return p
}

// Root returns the all-wildcard prefix covering the whole width-bit domain.
func Root(width int) (Prefix, error) {
	return New(0, 0, width)
}

// Exact returns the fully-specified prefix matching exactly value.
func Exact(value uint64, width int) (Prefix, error) {
	return New(value, width, width)
}

// Value returns the canonical match value (wildcard bits zero).
func (p Prefix) Value() uint64 { return p.value }

// Bits returns the number of significant bits.
func (p Prefix) Bits() int { return int(p.bits) }

// Width returns the operand width in bits.
func (p Prefix) Width() int { return int(p.width) }

// WildBits returns the number of wildcard (don't-care) bits.
func (p Prefix) WildBits() int { return int(p.width - p.bits) }

// IsValid reports whether p was constructed by this package (width >= 1).
func (p Prefix) IsValid() bool { return p.width >= 1 && p.bits <= p.width }

// Mask returns the ternary mask: 1 bits are matched, 0 bits are wildcards.
func (p Prefix) Mask() uint64 {
	return mask(int(p.width)) &^ mask(p.WildBits())
}

// Lo returns the smallest operand value matched by p.
func (p Prefix) Lo() uint64 { return p.value }

// Hi returns the largest operand value matched by p.
func (p Prefix) Hi() uint64 { return p.value | mask(p.WildBits()) }

// Size returns the number of operand values matched by p. For the 64-bit
// all-wildcard prefix the true count 2^64 does not fit in uint64; Size
// saturates to math.MaxUint64 in that single case.
func (p Prefix) Size() uint64 {
	if p.WildBits() >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(p.WildBits())
}

// Midpoint returns the midpoint of the covered interval, the paper's
// median-of-range representative (used by Nimble [10] and §II-A).
func (p Prefix) Midpoint() uint64 {
	lo, hi := p.Lo(), p.Hi()
	return lo + (hi-lo)/2
}

// GeoMean returns the integer geometric mean of the covered interval,
// sqrt(lo*hi) computed without overflow. For lo == 0 it returns the geometric
// mean of [1, hi] (zero would collapse the product). This representative
// minimises multiplicative error and is offered as an ablation of the paper's
// midpoint choice.
func (p Prefix) GeoMean() uint64 {
	lo, hi := p.Lo(), p.Hi()
	if lo == 0 {
		lo = 1
	}
	if hi == 0 {
		return 0
	}
	return isqrtMul(lo, hi)
}

// isqrtMul returns floor(sqrt(a*b)) without overflowing uint64.
func isqrtMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return isqrt128(hi, lo)
}

// isqrt128 returns floor(sqrt(hi:lo)) for a 128-bit radicand.
func isqrt128(hi, lo uint64) uint64 {
	if hi == 0 {
		return isqrt64(lo)
	}
	// Newton's iteration seeded above the true root.
	shift := uint((128 - bits.LeadingZeros64(hi) + 1) / 2)
	x := uint64(1) << shift
	for {
		// y = (x + (hi:lo)/x) / 2, using 128/64 division.
		q, _ := bits.Div64(hi%x, lo, x) // safe: hi%x < x
		// (hi:lo)/x = (hi/x)<<64 + q approximately; hi/x must be 0 for q to be
		// the full quotient, which holds once x > hi. Seed guarantees x^2 >=
		// hi:lo hence x > sqrt >= 2^32 > hi when hi < 2^64... guard explicitly:
		if hi/x != 0 {
			x <<= 1
			continue
		}
		y := (x + q) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

// isqrt64 returns floor(sqrt(v)).
func isqrt64(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	x := uint64(1) << uint((bits.Len64(v)+1)/2)
	for {
		y := (x + v/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

// Contains reports whether p matches operand value v.
func (p Prefix) Contains(v uint64) bool {
	return v&p.Mask() == p.value
}

// ContainsPrefix reports whether every value matched by q is matched by p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return p.width == q.width && p.bits <= q.bits && q.value&p.Mask() == p.value
}

// Overlaps reports whether p and q match at least one common value.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.width != q.width {
		return false
	}
	m := p.Mask() & q.Mask()
	return p.value&m == q.value&m
}

// Left returns the child prefix with the next bit fixed to 0.
func (p Prefix) Left() (Prefix, error) {
	if p.bits == p.width {
		return Prefix{}, ErrNoChild
	}
	return Prefix{value: p.value, bits: p.bits + 1, width: p.width}, nil
}

// Right returns the child prefix with the next bit fixed to 1.
func (p Prefix) Right() (Prefix, error) {
	if p.bits == p.width {
		return Prefix{}, ErrNoChild
	}
	bit := uint64(1) << uint(p.WildBits()-1)
	return Prefix{value: p.value | bit, bits: p.bits + 1, width: p.width}, nil
}

// Parent returns the prefix one level up (one more wildcard bit).
func (p Prefix) Parent() (Prefix, error) {
	if p.bits == 0 {
		return Prefix{}, ErrNoParent
	}
	wild := p.WildBits()
	bit := uint64(1) << uint(wild)
	return Prefix{value: p.value &^ bit, bits: p.bits - 1, width: p.width}, nil
}

// Sibling returns the other child of p's parent.
func (p Prefix) Sibling() (Prefix, error) {
	if p.bits == 0 {
		return Prefix{}, ErrNoParent
	}
	bit := uint64(1) << uint(p.WildBits())
	return Prefix{value: p.value ^ bit, bits: p.bits, width: p.width}, nil
}

// IsLeftChild reports whether p is the 0-branch of its parent. It returns
// false for the root.
func (p Prefix) IsLeftChild() bool {
	if p.bits == 0 {
		return false
	}
	return p.value&(uint64(1)<<uint(p.WildBits())) == 0
}

// Compare orders prefixes by their low bound, breaking ties by more
// significant bits first (so a parent sorts after its left child's exact
// position but before disjoint successors). It returns -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Lo() < q.Lo():
		return -1
	case p.Lo() > q.Lo():
		return 1
	case p.bits > q.bits:
		return -1
	case p.bits < q.bits:
		return 1
	default:
		return 0
	}
}

// String renders p in the paper's notation, e.g. "01x" for width 3, bits 2.
func (p Prefix) String() string {
	var b strings.Builder
	b.Grow(int(p.width))
	for i := int(p.width) - 1; i >= 0; i-- {
		if int(p.width)-1-i < int(p.bits) {
			if p.value&(uint64(1)<<uint(i)) != 0 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		} else {
			b.WriteByte('x')
		}
	}
	return b.String()
}

// Parse reads the "01x" notation produced by String. Wildcards must be a
// suffix (prefix patterns only), matching the paper's 0^p 1 (0|1)^s x^r form.
func Parse(s string) (Prefix, error) {
	width := len(s)
	if width < 1 || width > MaxWidth {
		return Prefix{}, fmt.Errorf("%w: %q", ErrWidth, s)
	}
	var value uint64
	sig := 0
	seenWild := false
	for i, c := range s {
		switch c {
		case '0', '1':
			if seenWild {
				return Prefix{}, fmt.Errorf("bitstr: parse %q: significant bit after wildcard at position %d", s, i)
			}
			value <<= 1
			if c == '1' {
				value |= 1
			}
			sig++
		case 'x', 'X', '*':
			seenWild = true
			value <<= 1
		default:
			return Prefix{}, fmt.Errorf("bitstr: parse %q: invalid character %q", s, c)
		}
	}
	return New(value, sig, width)
}

// CoverRange returns the minimal ordered set of prefixes whose union is
// exactly the integer interval [lo, hi] over width-bit operands. This is the
// classic range-to-prefix expansion used when a bounded working range must be
// installed into a TCAM.
func CoverRange(lo, hi uint64, width int) ([]Prefix, error) {
	if width < 1 || width > MaxWidth {
		return nil, fmt.Errorf("%w: got %d", ErrWidth, width)
	}
	if lo > hi {
		return nil, fmt.Errorf("%w: lo %d > hi %d", ErrRange, lo, hi)
	}
	if hi&^mask(width) != 0 {
		return nil, fmt.Errorf("%w: hi %d exceeds width %d", ErrValue, hi, width)
	}
	var out []Prefix
	for {
		// Largest aligned power-of-two block starting at lo that fits in
		// [lo, hi].
		blockBits := bits.TrailingZeros64(lo)
		if lo == 0 {
			blockBits = width
		}
		if blockBits > width {
			blockBits = width
		}
		// Shrink until block fits within hi.
		for blockBits > 0 {
			sz := uint64(1) << uint(blockBits)
			if blockBits < 64 && sz != 0 && lo+sz-1 <= hi && lo+sz-1 >= lo {
				break
			}
			if blockBits >= 64 && hi == ^uint64(0) && lo == 0 {
				break
			}
			blockBits--
		}
		p, err := New(lo, width-blockBits, width)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		end := p.Hi()
		if end >= hi {
			return out, nil
		}
		lo = end + 1
	}
}

// SortPrefixes orders prefixes by Compare (ascending low bound, deeper
// first on ties), in place.
func SortPrefixes(ps []Prefix) {
	slices.SortFunc(ps, Prefix.Compare)
}

// Partition reports whether the given prefixes exactly tile the interval
// [0, 2^width) with no gaps or overlaps. All prefixes must share one width.
// An empty slice is not a partition.
func Partition(ps []Prefix) bool {
	if len(ps) == 0 {
		return false
	}
	width := ps[0].Width()
	sorted := make([]Prefix, len(ps))
	copy(sorted, ps)
	SortPrefixes(sorted)
	var next uint64
	for i, p := range sorted {
		if p.Width() != width {
			return false
		}
		if p.Lo() != next {
			return false
		}
		hi := p.Hi()
		if i == len(sorted)-1 {
			return hi == mask(width)
		}
		if hi == ^uint64(0) {
			return false // covers the top but entries remain
		}
		next = hi + 1
	}
	return false
}
