package main

import "github.com/ada-repro/ada/internal/tcam"

// oracle is a brute-force resolver over one snapshot of the shared
// physical table: entries in resolution order, split by tenant-ID field, so
// that the first row whose every field matches wins — the linear TCAM the
// compiled index, the lookup cache and the dedup pass must all agree with.
// It deliberately does not call the table's own lookup paths.
type oracle struct {
	byTenant map[uint64][]*tcam.Entry
}

// newOracle snapshots entries (already in resolution order, as
// Table.Entries returns them).
func newOracle(entries []*tcam.Entry) *oracle {
	o := &oracle{byTenant: make(map[uint64][]*tcam.Entry)}
	for _, e := range entries {
		if len(e.Fields) == 0 || e.Fields[0].Mask == 0 {
			continue // every tenant row carries a fully-specified ID field
		}
		id := e.Fields[0].Value
		o.byTenant[id] = append(o.byTenant[id], e)
	}
	return o
}

// resolve returns the result a tenant's key tuple resolves to: the physical
// key is the tenant ID followed by the operands, with unused operand fields
// zero (matched by their wildcards).
func (o *oracle) resolve(id uint64, keys ...uint64) (uint64, bool) {
	var phys [3]uint64
	phys[0] = id
	copy(phys[1:], keys)
	for _, e := range o.byTenant[id] {
		match := true
		for i, f := range e.Fields {
			if i >= len(phys) || !f.Matches(phys[i]) {
				match = false
				break
			}
		}
		if match {
			r, ok := e.Data.(uint64)
			return r, ok
		}
	}
	return 0, false
}
