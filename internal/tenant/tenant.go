// Package tenant carves one physical calculation TCAM into per-operation
// slices so several ADA systems (QCN, RCP, rate limiting, heavy-hitter
// squares, …) share a single table — the deployment shape of a real PISA
// pipeline, where stage memory is one pool, not one TCAM per operation.
//
// A Partition owns the physical table and hands out Slices. Isolation is
// structural, not cooperative:
//
//   - every slice's rows carry a fully-specified tenant-ID field (the first
//     physical match field), so a tenant's lookups can only ever resolve to
//     its own rows;
//   - every slice installs its rows inside a private, disjoint priority band,
//     so no two slices ever overlap in priority space;
//   - every slice commit is checked against the slice's quota, and quota
//     changes follow a shrink-before-grow ledger: a beneficiary is granted
//     room only out of measured free headroom (capacity − Σ max(used, quota)),
//     so the physical table can never be driven past its capacity even while
//     a victim still occupies the entries it has been asked to give back.
//
// A Slice implements tcam.Store, so the arithmetic engines and the control
// plane run on it unchanged; relative to a private table of the same budget
// the committed population, write counts, and fingerprints are identical
// (the differential tests in this package and internal/core prove it).
// The Arbiter (arbiter.go) moves quota between slices toward whichever
// operation's marginal error is highest.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/ada-repro/ada/internal/tcam"
)

var (
	// ErrConfig reports an invalid partition or slice configuration.
	ErrConfig = errors.New("tenant: invalid configuration")
	// ErrQuota reports a quota change the ledger cannot grant.
	ErrQuota = errors.New("tenant: quota exceeds free headroom")
	// ErrTenant reports an unknown or duplicate tenant name.
	ErrTenant = errors.New("tenant: unknown or duplicate tenant")
	// ErrClosed reports a commit against a slice whose tenant has been
	// closed (e.g. migrated to another switch by the fabric arbiter).
	ErrClosed = errors.New("tenant: slice closed")
)

// Config sizes a partition's physical table.
type Config struct {
	// Name is the physical table name; slices are named Name/tenant.
	Name string
	// TotalEntries is the physical capacity shared by all slices; > 0.
	TotalEntries int
	// TenantIDBits is the width of the tenant-ID discriminator field
	// (first physical match field). Default 8 (255 tenants).
	TenantIDBits int
	// OperandWidths are the physical operand field widths. A slice may use
	// a prefix of these fields at narrower widths; unused fields are
	// wildcarded. Default [16, 16].
	OperandWidths []int
	// BandSize is the priority span reserved per slice; tenant-local
	// priorities must stay below it. Default 1<<20.
	BandSize int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "ada.shared.calc"
	}
	if c.TenantIDBits == 0 {
		c.TenantIDBits = 8
	}
	if len(c.OperandWidths) == 0 {
		c.OperandWidths = []int{16, 16}
	}
	if c.BandSize == 0 {
		c.BandSize = 1 << 20
	}
	return c
}

// Partition carves one physical tcam.Table into tenant slices.
type Partition struct {
	mu   sync.Mutex
	cfg  Config
	phys *tcam.Table

	slices []*Slice
	byName map[string]*Slice
	// nextID hands out tenant-ID field values; IDs of closed tenants are
	// never reused, so a stale engine can never resolve a successor's rows.
	nextID uint64

	// committing is the slice whose commit currently holds mu; the
	// physical write hook dispatches per-row faults to it. All physical
	// mutations go through slice commits, so it is only read under mu.
	committing *Slice
	// hook is the partition-global write hook (chaos soaks attach here).
	hook tcam.WriteHook
}

// NewPartition allocates the physical table: one fully-specified tenant-ID
// field followed by the operand fields.
func NewPartition(cfg Config) (*Partition, error) {
	cfg = cfg.withDefaults()
	if cfg.TotalEntries <= 0 {
		return nil, fmt.Errorf("%w: TotalEntries %d", ErrConfig, cfg.TotalEntries)
	}
	if cfg.TenantIDBits < 1 || cfg.TenantIDBits > 32 {
		return nil, fmt.Errorf("%w: TenantIDBits %d", ErrConfig, cfg.TenantIDBits)
	}
	if cfg.BandSize < 1 {
		return nil, fmt.Errorf("%w: BandSize %d", ErrConfig, cfg.BandSize)
	}
	widths := append([]int{cfg.TenantIDBits}, cfg.OperandWidths...)
	phys, err := tcam.New(cfg.Name, cfg.TotalEntries, widths...)
	if err != nil {
		return nil, err
	}
	p := &Partition{cfg: cfg, phys: phys, byName: make(map[string]*Slice)}
	phys.SetWriteHook(p.dispatch)
	return p, nil
}

// Table exposes the physical table for resource accounting and layout; all
// mutations must go through slices.
func (p *Partition) Table() *tcam.Table { return p.phys }

// SetWriteHook installs a partition-global per-row hook, consulted before
// the committing slice's own hook. Used by chaos soaks that fault the shared
// table as a whole.
func (p *Partition) SetWriteHook(h tcam.WriteHook) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hook = h
}

// dispatch runs with the physical table lock held, inside a slice commit
// that holds p.mu.
func (p *Partition) dispatch(op tcam.WriteOp) error {
	if p.hook != nil {
		if err := p.hook(op); err != nil {
			return err
		}
	}
	if s := p.committing; s != nil && s.hook != nil {
		return s.hook(op)
	}
	return nil
}

// Open admits a tenant: widths are its operand field widths (a prefix of the
// physical operand fields, each no wider), quota its initial entry budget.
// The slice receives the next tenant ID and the priority band
// [id·BandSize, (id+1)·BandSize).
func (p *Partition) Open(name string, widths []int, quota int) (*Slice, error) {
	if name == "" || strings.ContainsAny(name, "/\n") {
		return nil, fmt.Errorf("%w: tenant name %q", ErrConfig, name)
	}
	if len(widths) == 0 || len(widths) > len(p.cfg.OperandWidths) {
		return nil, fmt.Errorf("%w: %d operand fields, physical table has %d", ErrConfig, len(widths), len(p.cfg.OperandWidths))
	}
	for i, w := range widths {
		if w < 1 || w > p.cfg.OperandWidths[i] {
			return nil, fmt.Errorf("%w: field %d width %d exceeds physical %d", ErrConfig, i, w, p.cfg.OperandWidths[i])
		}
	}
	if quota < 0 {
		return nil, fmt.Errorf("%w: quota %d", ErrConfig, quota)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.byName[name]; ok {
		return nil, fmt.Errorf("%w: %q already open", ErrTenant, name)
	}
	id := p.nextID + 1
	if id >= 1<<p.cfg.TenantIDBits {
		return nil, fmt.Errorf("%w: tenant-ID space exhausted (%d bits)", ErrConfig, p.cfg.TenantIDBits)
	}
	if quota > p.headroomLocked() {
		return nil, fmt.Errorf("%w: quota %d, headroom %d", ErrQuota, quota, p.headroomLocked())
	}
	s := &Slice{
		p:         p,
		name:      name,
		id:        id,
		bandLo:    int(id) * p.cfg.BandSize,
		widths:    append([]int(nil), widths...),
		quota:     quota,
		installed: make(map[string]sliceRow),
	}
	p.nextID = id
	p.slices = append(p.slices, s)
	p.byName[name] = s
	return s, nil
}

// Close evicts a tenant: every physical row the slice holds is deleted in
// one transactional commit, the slice is marked closed (further commits fail
// with ErrClosed; lookups simply miss), and its reservation leaves the
// ledger, freeing headroom immediately. The delete goes through the same
// write-hook seam as any commit, so injected row faults can make a Close
// fail — in which case the slice stays open and installed, untouched.
// Returns the physical row deletes performed.
func (p *Partition) Close(name string) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrTenant, name)
	}
	var keys []string
	for k := range s.installed {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic physical delete sequence
	physDel := make([]tcam.Row, 0, len(keys))
	for _, k := range keys {
		old := s.installed[k]
		pr, err := s.physRow(old.fields, old.priority, nil)
		if err != nil {
			return 0, err
		}
		physDel = append(physDel, pr)
	}
	writes, err := s.commitLocked(nil, physDel)
	if err != nil {
		return 0, err
	}
	s.installed = make(map[string]sliceRow)
	s.quota = 0
	s.closed = true
	delete(p.byName, name)
	for i, sl := range p.slices {
		if sl == s {
			p.slices = append(p.slices[:i], p.slices[i+1:]...)
			break
		}
	}
	return writes, nil
}

// headroomLocked is the free capacity the ledger may still grant: physical
// capacity minus every slice's effective reservation max(used, quota). Using
// the max means a slice asked to shrink keeps its old entries reserved until
// it actually commits the smaller population — shrink-before-grow.
func (p *Partition) headroomLocked() int {
	free := p.cfg.TotalEntries
	for _, s := range p.slices {
		r := len(s.installed)
		if s.quota > r {
			r = s.quota
		}
		free -= r
	}
	if free < 0 {
		free = 0
	}
	return free
}

// Headroom reports the free capacity available for quota grants.
func (p *Partition) Headroom() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.headroomLocked()
}

// SetQuota changes a tenant's entry budget. Decreases always succeed (the
// ledger keeps the old entries reserved until the tenant commits within the
// new quota); increases succeed only within the free headroom, so the grant
// can never oversubscribe the physical table.
func (p *Partition) SetQuota(name string, quota int) error {
	if quota < 0 {
		return fmt.Errorf("%w: quota %d", ErrConfig, quota)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenant, name)
	}
	if quota > s.quota {
		grow := quota - s.quota
		if free := p.headroomLocked(); grow > free {
			return fmt.Errorf("%w: +%d requested, %d free", ErrQuota, grow, free)
		}
	}
	s.quota = quota
	return nil
}

// Slices returns the open slices in admission order.
func (p *Partition) Slices() []*Slice {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Slice(nil), p.slices...)
}

// Slice returns the named tenant's slice.
func (p *Partition) Slice(name string) (*Slice, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.byName[name]
	return s, ok
}

// Validate checks the partition invariants against the physical table:
// occupancy within capacity, the ledger within capacity, every physical row
// owned by exactly one slice (fully-specified tenant-ID field), priorities
// inside the owner's band, and each slice's shadow map in exact agreement
// with the physical rows. The differential tests call it every round.
func (p *Partition) Validate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.phys.Len(); n > p.cfg.TotalEntries {
		return fmt.Errorf("tenant: physical table %q holds %d entries, capacity %d", p.cfg.Name, n, p.cfg.TotalEntries)
	}
	reserved := 0
	for _, s := range p.slices {
		r := len(s.installed)
		if s.quota > r {
			r = s.quota
		}
		reserved += r
	}
	if reserved > p.cfg.TotalEntries {
		return fmt.Errorf("tenant: ledger reserves %d entries, capacity %d", reserved, p.cfg.TotalEntries)
	}
	tidMask := uint64(1)<<p.cfg.TenantIDBits - 1
	byID := make(map[uint64]*Slice, len(p.slices))
	for _, s := range p.slices {
		byID[s.id] = s
	}
	seen := make(map[uint64]map[string]bool, len(p.slices))
	for _, e := range p.phys.Entries() {
		tid := e.Fields[0]
		if tid.Mask != tidMask {
			return fmt.Errorf("tenant: entry %d tenant-ID field not fully specified (mask %#x)", e.ID, tid.Mask)
		}
		s, ok := byID[tid.Value]
		if !ok {
			return fmt.Errorf("tenant: entry %d carries unknown tenant ID %d", e.ID, tid.Value)
		}
		if e.Priority < s.bandLo || e.Priority >= s.bandLo+p.cfg.BandSize {
			return fmt.Errorf("tenant: entry %d priority %d outside %q band [%d, %d)",
				e.ID, e.Priority, s.name, s.bandLo, s.bandLo+p.cfg.BandSize)
		}
		local := tcam.RowKey(e.Fields[1:1+len(s.widths)], e.Priority-s.bandLo)
		row, ok := s.installed[local]
		if !ok {
			return fmt.Errorf("tenant: entry %d not in %q's shadow map (key %s)", e.ID, s.name, local)
		}
		if fmt.Sprint(row.data) != fmt.Sprint(e.Data) {
			return fmt.Errorf("tenant: entry %d data diverged from %q's shadow map", e.ID, s.name)
		}
		if seen[s.id] == nil {
			seen[s.id] = make(map[string]bool)
		}
		seen[s.id][local] = true
	}
	for _, s := range p.slices {
		if got := len(seen[s.id]); got != len(s.installed) {
			return fmt.Errorf("tenant: %q holds %d physical rows, shadow map %d", s.name, got, len(s.installed))
		}
	}
	return nil
}

// sliceRow is a tenant-local installed row (fields and priority before
// translation to the physical layout).
type sliceRow struct {
	fields   []tcam.Field
	priority int
	data     any
}

// Slice is one tenant's view of the shared table. It implements tcam.Store:
// the arithmetic engines and control plane treat it exactly like a private
// table whose capacity is the slice's current quota. Lookup and
// LookupIndexBatch translate tenant-local key tuples to the physical layout;
// LookupSnapshot is the shared table's, whose ordinals they return.
type Slice struct {
	p      *Partition
	name   string
	id     uint64
	bandLo int
	widths []int

	// quota, installed, version, closed, and hook are guarded by p.mu.
	quota     int
	installed map[string]sliceRow
	version   uint64
	closed    bool
	hook      tcam.WriteHook
}

var _ tcam.Store = (*Slice)(nil)

// Name returns partition/tenant.
func (s *Slice) Name() string { return s.p.cfg.Name + "/" + s.name }

// TenantName returns the bare tenant name used with Partition.SetQuota.
func (s *Slice) TenantName() string { return s.name }

// ID returns the slice's tenant-ID field value.
func (s *Slice) ID() uint64 { return s.id }

// Band returns the slice's priority band [lo, hi).
func (s *Slice) Band() (lo, hi int) { return s.bandLo, s.bandLo + s.p.cfg.BandSize }

// FieldWidths returns the tenant-local operand widths.
func (s *Slice) FieldWidths() []int { return append([]int(nil), s.widths...) }

// Capacity reports the current quota.
func (s *Slice) Capacity() int {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.quota
}

// Len reports the installed tenant-local rows.
func (s *Slice) Len() int {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return len(s.installed)
}

// Version follows the tcam package's Version contract (see the tcam package
// doc), scoped to this tenant: other tenants' commits do not advance it.
func (s *Slice) Version() uint64 {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.version
}

// Fingerprint digests the tenant-local rows in the same format as a private
// table, so a slice and a standalone run of the same population fingerprint
// equal.
func (s *Slice) Fingerprint() string {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	keys := make([]string, 0, len(s.installed))
	for k, r := range s.installed {
		keys = append(keys, k+"="+fmt.Sprint(r.data))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// SetWriteHook installs a per-row hook consulted for this slice's physical
// commits only — fault injection scoped to one tenant.
func (s *Slice) SetWriteHook(h tcam.WriteHook) {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	s.hook = h
}

// validateLocal mirrors the private-table field validation against the
// tenant-local widths.
func (s *Slice) validateLocal(fields []tcam.Field) error {
	if len(fields) != len(s.widths) {
		return fmt.Errorf("tenant: %s: row has %d fields, slice has %d", s.Name(), len(fields), len(s.widths))
	}
	for i, f := range fields {
		if w := s.widths[i]; w < 64 {
			max := uint64(1)<<w - 1
			if f.Value > max || f.Mask > max {
				return fmt.Errorf("tenant: %s: field %d exceeds %d bits", s.Name(), i, w)
			}
		}
	}
	return nil
}

// physRow translates a tenant-local row to the physical layout: the
// fully-specified tenant-ID field, the operand fields, wildcards for unused
// physical fields, and the priority offset into the slice's band.
func (s *Slice) physRow(fields []tcam.Field, priority int, data any) (tcam.Row, error) {
	if priority < 0 || priority >= s.p.cfg.BandSize {
		return tcam.Row{}, fmt.Errorf("tenant: %s: priority %d outside band size %d", s.Name(), priority, s.p.cfg.BandSize)
	}
	pf := make([]tcam.Field, 1+len(s.p.cfg.OperandWidths))
	pf[0] = tcam.Field{Value: s.id, Mask: uint64(1)<<s.p.cfg.TenantIDBits - 1}
	copy(pf[1:], fields)
	return tcam.Row{Fields: pf, Priority: s.bandLo + priority, Data: data}, nil
}

// Lookup resolves one tenant-local key tuple. The fully-specified tenant-ID
// field restricts resolution to this slice's rows; within them, LPM order is
// identical to a private table (the ID field adds a constant to every sig
// count, the band a constant to every priority). Like a private table, a
// tuple whose arity differs from the slice's misses; the unused physical
// operand fields are zero-padded, which their wildcards match.
func (s *Slice) Lookup(keys ...uint64) (*tcam.Entry, bool) {
	if len(keys) != len(s.widths) {
		return nil, false
	}
	pk := make([]uint64, 1+len(s.p.cfg.OperandWidths))
	pk[0] = s.id
	copy(pk[1:], keys)
	return s.p.phys.Lookup(pk...)
}

// physFlatPool recycles the translated key buffers LookupIndexBatch packs,
// so a tenant-mounted engine's steady-state batches stay allocation-free.
var physFlatPool = sync.Pool{New: func() any { return new([]uint64) }}

// LookupIndexBatch translates the tenant-local packed tuples to the physical
// layout (tenant-ID first, unused operand fields zeroed against their
// wildcards) and resolves them against one compiled snapshot of the shared
// table. The returned ordinals and payloads are the physical table's; within
// this slice's rows resolution is identical to a private table's.
func (s *Slice) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, tcam.Payloads) {
	arity := len(s.widths)
	n := len(flat) / arity
	stride := 1 + len(s.p.cfg.OperandWidths)
	bufp := physFlatPool.Get().(*[]uint64)
	pk := *bufp
	if cap(pk) >= n*stride {
		pk = pk[:n*stride]
	} else {
		pk = make([]uint64, n*stride)
	}
	for i := 0; i < n; i++ {
		row := pk[i*stride : (i+1)*stride]
		row[0] = s.id
		copy(row[1:1+arity], flat[i*arity:(i+1)*arity])
		for j := 1 + arity; j < stride; j++ {
			row[j] = 0
		}
	}
	ords, pay := s.p.phys.LookupIndexBatch(pk, dst)
	*bufp = pk
	physFlatPool.Put(bufp)
	return ords, pay
}

// LookupSnapshot delegates to the shared physical table: the ordinals a
// slice lookup returns are physical-table ordinals, so the physical snapshot
// generation is the correct validity token. Any tenant's commit (or an
// Unmount tearing a neighbour's rows out) advances it, which is
// conservative for the other tenants' caches but never stale.
func (s *Slice) LookupSnapshot() (tcam.Payloads, uint64) {
	return s.p.phys.LookupSnapshot()
}

// ApplyRowsAtomic reconciles the slice toward rows, all-or-nothing, with the
// same write accounting as a private table: unchanged rows cost nothing,
// changed data one update, new rows one insert, stale rows one delete. Rows
// must have distinct match keys (every population builder guarantees this).
func (s *Slice) ApplyRowsAtomic(rows []tcam.Row) (int, error) {
	for _, r := range rows {
		if err := s.validateLocal(r.Fields); err != nil {
			return 0, err
		}
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("%w: %s", ErrClosed, s.Name())
	}
	if len(rows) > s.quota {
		return 0, &tcam.CapacityError{Table: s.Name(), Capacity: s.quota, Installed: len(s.installed), Requested: len(rows)}
	}
	next := make(map[string]sliceRow, len(rows))
	physUp := make([]tcam.Row, 0, len(rows))
	for _, r := range rows {
		k := tcam.RowKey(r.Fields, r.Priority)
		if _, dup := next[k]; dup {
			return 0, fmt.Errorf("tenant: %s: duplicate match key %s", s.Name(), k)
		}
		next[k] = sliceRow{fields: r.Fields, priority: r.Priority, data: r.Data}
		pr, err := s.physRow(r.Fields, r.Priority, r.Data)
		if err != nil {
			return 0, err
		}
		physUp = append(physUp, pr)
	}
	// Stale rows, in sorted key order for a deterministic physical delete
	// sequence.
	var staleKeys []string
	for k := range s.installed {
		if _, keep := next[k]; !keep {
			staleKeys = append(staleKeys, k)
		}
	}
	sort.Strings(staleKeys)
	physDel := make([]tcam.Row, 0, len(staleKeys))
	for _, k := range staleKeys {
		old := s.installed[k]
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

// ApplyDelta applies an incremental reconciliation transactionally, exactly
// like tcam.Table.ApplyDelta scoped to this slice; a delete of a key that is
// not installed fails with tcam.ErrDeltaConflict before touching the table.
func (s *Slice) ApplyDelta(upserts, deletes []tcam.Row) (int, error) {
	for _, r := range upserts {
		if err := s.validateLocal(r.Fields); err != nil {
			return 0, err
		}
	}
	for _, r := range deletes {
		if err := s.validateLocal(r.Fields); err != nil {
			return 0, err
		}
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("%w: %s", ErrClosed, s.Name())
	}
	removed := make(map[string]bool, len(deletes))
	physDel := make([]tcam.Row, 0, len(deletes))
	for _, r := range deletes {
		k := tcam.RowKey(r.Fields, r.Priority)
		old, ok := s.installed[k]
		if !ok || removed[k] {
			return 0, fmt.Errorf("%w: delete of %q not installed in slice %s", tcam.ErrDeltaConflict, k, s.Name())
		}
		removed[k] = true
		pr, err := s.physRow(old.fields, old.priority, nil)
		if err != nil {
			return 0, err
		}
		physDel = append(physDel, pr)
	}
	n := len(s.installed) - len(physDel)
	physUp := make([]tcam.Row, 0, len(upserts))
	upKeys := make([]string, 0, len(upserts))
	for _, r := range upserts {
		k := tcam.RowKey(r.Fields, r.Priority)
		if _, ok := s.installed[k]; !ok || removed[k] {
			n++
			if n > s.quota {
				return 0, &tcam.CapacityError{Table: s.Name(), Capacity: s.quota, Installed: len(s.installed) - len(physDel), Requested: 1}
			}
		}
		pr, err := s.physRow(r.Fields, r.Priority, r.Data)
		if err != nil {
			return 0, err
		}
		physUp = append(physUp, pr)
		upKeys = append(upKeys, k)
	}
	writes, err := s.commitLocked(physUp, physDel)
	if err != nil {
		return 0, err
	}
	for k := range removed {
		delete(s.installed, k)
	}
	for i, r := range upserts {
		s.installed[upKeys[i]] = sliceRow{fields: r.Fields, priority: r.Priority, data: r.Data}
	}
	return writes, nil
}

// commitLocked forwards a translated delta to the physical table with the
// slice marked as committing (for write-hook dispatch); p.mu must be held.
// The slice version advances on every attempt, like a private table's.
func (s *Slice) commitLocked(physUp, physDel []tcam.Row) (int, error) {
	s.p.committing = s
	writes, err := s.p.phys.ApplyDelta(physUp, physDel)
	s.p.committing = nil
	s.version++
	return writes, err
}
