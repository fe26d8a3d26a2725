package tenant

import (
	"fmt"
	"sort"

	"github.com/ada-repro/ada/internal/tcam"
)

// Audit seam: a slice reads back and repairs only its own priority band of
// the shared table. Scoping is structural — the physical scan keeps a row
// only when its fully-specified tenant-ID field names this slice AND its
// priority sits inside the slice's band — so an audit can never observe,
// let alone rewrite, another tenant's rows, no matter how corrupted the
// shared table is.

var _ tcam.Tamperer = (*Slice)(nil)

// bandRowLocked translates a physical read-back row to the tenant-local
// view if it belongs to this slice's band; p.mu must be held.
func (s *Slice) bandRowLocked(d tcam.RowDigest) (tcam.RowDigest, bool) {
	tidMask := uint64(1)<<s.p.cfg.TenantIDBits - 1
	if len(d.Fields) == 0 || d.Fields[0].Mask != tidMask || d.Fields[0].Value != s.id {
		return tcam.RowDigest{}, false
	}
	if d.Priority < s.bandLo || d.Priority >= s.bandLo+s.p.cfg.BandSize {
		return tcam.RowDigest{}, false
	}
	fields := make([]tcam.Field, len(s.widths))
	copy(fields, d.Fields[1:1+len(s.widths)])
	prio := d.Priority - s.bandLo
	return tcam.RowDigest{
		Key:      tcam.RowKey(fields, prio),
		Fields:   fields,
		Priority: prio,
		Data:     d.Data,
	}, true
}

// readBandLocked reads back this slice's physical band in the tenant-local
// layout; p.mu must be held.
func (s *Slice) readBandLocked() ([]tcam.RowDigest, error) {
	phys, err := s.p.phys.ReadRows()
	if err != nil {
		return nil, err
	}
	out := make([]tcam.RowDigest, 0, len(s.installed))
	for _, d := range phys {
		if local, ok := s.bandRowLocked(d); ok {
			out = append(out, local)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ReadRows reads back the physically installed rows of this slice's band
// only, translated to the tenant-local layout and sorted by match key.
// Ghost rows and corrupted payloads inside the band are visible; rows of
// every other tenant are structurally out of reach.
func (s *Slice) ReadRows() ([]tcam.RowDigest, error) {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.readBandLocked()
}

// AuditFingerprint digests the band read-back in Fingerprint format; it
// diverges from Fingerprint after silent in-band corruption and is blind to
// all other tenants by construction.
func (s *Slice) AuditFingerprint() (string, error) {
	rows, err := s.ReadRows()
	if err != nil {
		return "", err
	}
	return tcam.DigestFingerprint(rows), nil
}

// AuditRepair reconciles this slice's band toward the expected tenant-local
// population with minimal writes, all-or-nothing. Unlike ApplyRowsAtomic it
// first resynchronises the shadow map from the physical band read-back, so
// ghost rows are deleted and silently dropped rows reinstalled; the write
// set never leaves the band.
func (s *Slice) AuditRepair(expect []tcam.Row) (int, error) {
	for _, r := range expect {
		if err := s.validateLocal(r.Fields); err != nil {
			return 0, err
		}
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if len(expect) > s.quota {
		return 0, &tcam.CapacityError{Table: s.Name(), Capacity: s.quota, Installed: len(s.installed), Requested: len(expect)}
	}
	// Resync the shadow from hardware truth: the diff below must be against
	// what is physically installed, not what we believe we installed.
	band, err := s.readBandLocked()
	if err != nil {
		return 0, err
	}
	actual := make(map[string]sliceRow, len(band))
	for _, d := range band {
		actual[d.Key] = sliceRow{fields: d.Fields, priority: d.Priority, data: d.Data}
	}
	next := make(map[string]sliceRow, len(expect))
	physUp := make([]tcam.Row, 0, len(expect))
	for _, r := range expect {
		k := tcam.RowKey(r.Fields, r.Priority)
		if _, dup := next[k]; dup {
			return 0, fmt.Errorf("tenant: %s: duplicate match key %v priority %d", s.Name(), r.Fields, r.Priority)
		}
		next[k] = sliceRow{fields: r.Fields, priority: r.Priority, data: r.Data}
		pr, err := s.physRow(r.Fields, r.Priority, r.Data)
		if err != nil {
			return 0, err
		}
		physUp = append(physUp, pr)
	}
	var staleKeys []string
	for k := range actual {
		if _, keep := next[k]; !keep {
			staleKeys = append(staleKeys, k)
		}
	}
	sort.Strings(staleKeys)
	physDel := make([]tcam.Row, 0, len(staleKeys))
	for _, k := range staleKeys {
		old := actual[k]
		pr, err := s.physRow(old.fields, old.priority, nil)
		if err != nil {
			return 0, err
		}
		physDel = append(physDel, pr)
	}
	writes, err := s.commitLocked(physUp, physDel)
	if err != nil {
		return 0, err
	}
	s.installed = next
	return writes, nil
}

// TamperData silently corrupts an in-band row's payload in the shared
// table; the slice's shadow and Version stay untouched.
func (s *Slice) TamperData(fields []tcam.Field, priority int, data any) error {
	pr, err := s.tamperRow(fields, priority)
	if err != nil {
		return err
	}
	return s.p.phys.TamperData(pr.Fields, pr.Priority, data)
}

// TamperInsert silently installs a ghost row inside this slice's band.
func (s *Slice) TamperInsert(fields []tcam.Field, priority int, data any) error {
	pr, err := s.tamperRow(fields, priority)
	if err != nil {
		return err
	}
	return s.p.phys.TamperInsert(pr.Fields, pr.Priority, data)
}

// TamperDelete silently drops an in-band row from the shared table.
func (s *Slice) TamperDelete(fields []tcam.Field, priority int) error {
	pr, err := s.tamperRow(fields, priority)
	if err != nil {
		return err
	}
	return s.p.phys.TamperDelete(pr.Fields, pr.Priority)
}

// tamperRow validates and translates a tenant-local tamper target to the
// physical layout; band bounds are enforced by physRow, so injected faults
// cannot escape the slice either.
func (s *Slice) tamperRow(fields []tcam.Field, priority int) (tcam.Row, error) {
	if err := s.validateLocal(fields); err != nil {
		return tcam.Row{}, err
	}
	return s.physRow(fields, priority, nil)
}
