package tcam

import "fmt"

// Store is the table surface the arithmetic engines and the control plane
// program against: the lookup paths plus the transactional mutation,
// accounting, and fingerprinting contract of a *Table. A Store is a
// physical *Table, a *TieredStore, or a tenant slice of a shared table
// (internal/tenant), which lets several ADA operations share a single
// calculation TCAM without the layers above knowing.
type Store interface {
	// Lookup resolves one key tuple LPM-style (sig bits desc, priority
	// desc, insertion seq asc). A tuple of the wrong arity misses.
	Lookup(keys ...uint64) (*Entry, bool)
	// LookupIndexBatch is the zero-allocation hot path: packed key tuples
	// resolve to dense snapshot ordinals (−1 = miss) plus a typed payload
	// view, with dst reused when large enough. See Table.LookupIndexBatch
	// for the ordinal/payload pairing contract.
	LookupIndexBatch(flat []uint64, dst []int32) ([]int32, Payloads)
	// LookupSnapshot returns the current compiled snapshot's typed payload
	// view plus a generation token that changes whenever that snapshot
	// changes. Two calls returning the same token describe the same
	// immutable snapshot, so ordinals obtained under that token stay valid
	// against the returned Payloads; LookupCache keys itself on it. The
	// token is deliberately not Table.Generation(): the bulk-commit
	// generation stands still across single-row writes, tampering, and
	// tier re-placement, all of which change what the data plane serves
	// (see the package doc).
	LookupSnapshot() (Payloads, uint64)

	// ApplyRowsAtomic reconciles the store contents toward rows with
	// minimal writes, all-or-nothing.
	ApplyRowsAtomic(rows []Row) (writes int, err error)
	// ApplyDelta applies an incremental reconciliation transactionally;
	// a delete of a key that is not installed fails with ErrDeltaConflict.
	ApplyDelta(upserts, deletes []Row) (writes int, err error)

	Name() string
	// Capacity is the maximum number of entries the store admits (a
	// tenant slice reports its current quota, which may change between
	// rounds).
	Capacity() int
	Len() int
	// FieldWidths reports the match-field widths in bits.
	FieldWidths() []int
	// Version increases on every mutation attempt per the package's
	// generation/version contract (see the package doc).
	Version() uint64
	// Fingerprint digests the installed rows (match key + action data),
	// independent of insertion order.
	Fingerprint() string

	// ReadRows reads back the physically installed rows, sorted by match
	// key — the ground truth the audit layer diffs a shadow against. A
	// tenant slice reads back only its own priority band.
	ReadRows() ([]RowDigest, error)
	// AuditFingerprint digests the read-back rows in Fingerprint format;
	// it diverges from Fingerprint after silent corruption.
	AuditFingerprint() (string, error)
	// AuditRepair reconciles the physical contents toward the expected
	// population with minimal writes, all-or-nothing, tolerating ghost
	// rows the shadow never installed.
	AuditRepair(expect []Row) (writes int, err error)
}

// Tamperer is the fault-injection surface of a store: silent in-hardware
// mutations that bypass write hooks, stats, and the Version counter, so a
// controller shadow cannot see them. *Table implements it directly; a
// tenant slice implements it by translating to its physical band, which
// keeps injected corruption inside the slice's own rows.
type Tamperer interface {
	TamperData(fields []Field, priority int, data any) error
	TamperInsert(fields []Field, priority int, data any) error
	TamperDelete(fields []Field, priority int) error
}

var (
	_ Store    = (*Table)(nil)
	_ Tamperer = (*Table)(nil)
)

// CapacityError reports an operation refused because the table (or tenant
// slice) lacks room, including how much headroom remained so operators — and
// the tenant partition manager — can size the shortfall without a second
// query. It unwraps to ErrCapacity.
type CapacityError struct {
	Table     string
	Capacity  int
	Installed int // entries installed when the operation was refused
	Requested int // rows the operation needed room for
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("%v: table %q: %d rows requested, %d installed, capacity %d (headroom %d)",
		ErrCapacity, e.Table, e.Requested, e.Installed, e.Capacity, e.Headroom())
}

func (e *CapacityError) Unwrap() error { return ErrCapacity }

// Headroom is the number of further rows the table could still admit when
// the operation was refused.
func (e *CapacityError) Headroom() int {
	if h := e.Capacity - e.Installed; h > 0 {
		return h
	}
	return 0
}

// RowKey serialises a row's match fields and priority exactly as the table's
// internal match keys used for diffing and fingerprints. Tenant slices use it
// to fingerprint their tenant-local view identically to a private table.
func RowKey(fields []Field, priority int) string {
	return matchKey(fields, priority)
}
