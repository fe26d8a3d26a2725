package tcam

import (
	"fmt"
	"sort"
	"strings"
)

// RowDigest is one physical row as read back from the hardware: the match
// key in the table's canonical serialisation, the raw fields/priority it was
// derived from, and the installed action data. The audit layer diffs digests
// against the controller's shadow population to classify desync.
type RowDigest struct {
	Key      string
	Fields   []Field
	Priority int
	Data     any
}

// Row converts the digest back into a Row suitable for re-installation.
func (d RowDigest) Row() Row {
	return Row{Fields: d.Fields, Priority: d.Priority, Data: d.Data}
}

// DataEqual compares two action payloads with the same semantics the
// table's own reconciliation diff uses, so an external audit classifies
// "changed data" exactly when ApplyRowsAtomic would issue an update.
func DataEqual(a, b any) bool { return dataEqual(a, b) }

// ReadRows reads back every physically installed row, sorted by match key
// for deterministic comparison. Unlike Entries, it reflects the true
// hardware contents — including rows silently corrupted or inserted by the
// Tamper methods that the version counter never saw.
func (t *Table) ReadRows() ([]RowDigest, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]RowDigest, 0, len(t.ordered))
	for _, e := range t.ordered {
		fs := make([]Field, len(e.Fields))
		copy(fs, e.Fields)
		out = append(out, RowDigest{Key: e.key, Fields: fs, Priority: e.Priority, Data: e.Data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// AuditFingerprint digests the rows actually installed in hardware by
// reading them back, in the same format as Fingerprint. For an untampered
// table the two are equal; after silent corruption Fingerprint (which a
// shadow copy can mirror) and AuditFingerprint diverge.
func (t *Table) AuditFingerprint() (string, error) {
	rows, err := t.ReadRows()
	if err != nil {
		return "", err
	}
	return DigestFingerprint(rows), nil
}

// DigestFingerprint renders read-back digests in Fingerprint format so
// hardware read-backs and shadow fingerprints compare byte-for-byte.
func DigestFingerprint(rows []RowDigest) string {
	keys := make([]string, 0, len(rows))
	for _, d := range rows {
		keys = append(keys, d.Key+"="+fmt.Sprint(d.Data))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// AuditRepair reconciles the physical contents toward the expected
// population with minimal writes, all-or-nothing. It is the anti-entropy
// write path: unlike ApplyDelta it tolerates ghost rows (entries the shadow
// never installed) because it diffs against the true hardware state.
func (t *Table) AuditRepair(expect []Row) (writes int, err error) {
	return t.ApplyRowsAtomic(expect)
}

// findTamperTargetLocked locates the physical entry with the given match
// fields and priority; t.mu must be held.
func (t *Table) findTamperTargetLocked(fields []Field, priority int) *Entry {
	key := matchKey(fields, priority)
	for _, e := range t.ordered {
		if e.key == key {
			return e
		}
	}
	return nil
}

// TamperData silently overwrites the action data of the installed row with
// the given match fields and priority, modelling in-hardware payload
// corruption (e.g. a bit-flip): no write hook fires, no stats move, and the
// externally visible Version stays put, so controller shadows keep trusting
// a row that now serves wrong data. The data plane serves the corrupted
// payload immediately. Returns ErrNotFound when no such row is installed.
func (t *Table) TamperData(fields []Field, priority int, data any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.findTamperTargetLocked(fields, priority)
	if e == nil {
		return fmt.Errorf("%w: tamper target %v priority %d in table %q", ErrNotFound, fields, priority, t.name)
	}
	e.Data = data
	t.tamperLocked()
	return nil
}

// TamperInsert silently installs a ghost row the controller never asked
// for. It respects physical capacity (hardware cannot hold more rows than
// it has) but bypasses the write hook, stats, and the Version counter.
// Inserting over an already-installed match key fails with ErrDeltaConflict
// so injectors can distinguish ghosts from corruption.
func (t *Table) TamperInsert(fields []Field, priority int, data any) error {
	if err := t.validateFields(fields); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.findTamperTargetLocked(fields, priority) != nil {
		return fmt.Errorf("%w: ghost row %v priority %d already installed in table %q",
			ErrDeltaConflict, fields, priority, t.name)
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.entries), Requested: 1}
	}
	e := t.newEntryLocked(fields, priority, data)
	t.entries[e.ID] = e
	t.insertOrdered(e)
	t.tamperLocked()
	return nil
}

// TamperDelete silently drops the installed row with the given match fields
// and priority, modelling a row lost in hardware. Bypasses the write hook,
// stats, and the Version counter. Returns ErrNotFound when absent.
func (t *Table) TamperDelete(fields []Field, priority int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.findTamperTargetLocked(fields, priority)
	if e == nil {
		return fmt.Errorf("%w: tamper target %v priority %d in table %q", ErrNotFound, fields, priority, t.name)
	}
	delete(t.entries, e.ID)
	t.removeOrderedLocked(e)
	t.tamperLocked()
	return nil
}
