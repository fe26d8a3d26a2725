package tcam

// CompiledForm reports the compiled form of t's current snapshot for the
// external-package tests: "linear", "keyed", "rset", "grid", or "trie".
// For a keyed snapshot, parts maps every field-0 value that has entries to
// its partition's form ("rset", "grid", "trie", or "wildcard"). wholeTrie
// reports whether a whole-table trie was built.
func CompiledForm(t *Table) (kind string, parts map[uint64]string, wholeTrie bool) {
	ix := t.loadIndex()
	wholeTrie = ix.root != nil
	switch {
	case ix.linear:
		return "linear", nil, wholeTrie
	case ix.keyed:
		parts = make(map[uint64]string)
		for v := range ix.parts {
			if p := &ix.parts[v]; p.first >= 0 {
				parts[uint64(v)] = p.kind()
			}
		}
		return "keyed", parts, wholeTrie
	}
	return ix.kind(), nil, wholeTrie
}

// kind names the structure a form resolves through.
func (f *form) kind() string {
	switch {
	case f.rset != nil:
		return "rset"
	case f.grid != nil:
		return "grid"
	case f.root != nil:
		return "trie"
	}
	return "wildcard"
}
