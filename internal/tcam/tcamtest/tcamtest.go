// Package tcamtest holds the brute-force reference that the compiled lookup
// paths of package tcam are tested against. It is a priority encoder over a
// resolution-ordered entry list: every row compares the key against its
// ternary fields, and the first row that matches wins. This is what a
// hardware TCAM's match lines and priority encoder do. The code is short
// enough to be right by inspection, which is the point of an oracle.
package tcamtest

import "github.com/ada-repro/ada/internal/tcam"

// Winner returns the position in entries of the first entry whose every
// field matches keys, or -1 when no entry matches. Given Table.Entries,
// which lists entries in resolution order (significant bits descending,
// priority descending, insertion ascending), that is the table's winner;
// and since a compiled snapshot numbers its entries in the same order, the
// position equals the ordinal LookupIndexBatch returns against a snapshot
// of the same contents. A tuple whose length differs from an entry's field
// count never matches it.
func Winner(entries []*tcam.Entry, keys ...uint64) int {
next:
	for i, e := range entries {
		if len(e.Fields) != len(keys) {
			continue
		}
		for f, fd := range e.Fields {
			if !fd.Matches(keys[f]) {
				continue next
			}
		}
		return i
	}
	return -1
}
