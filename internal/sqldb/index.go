package sqldb

import "sync"

// IndexKind selects the physical structure backing an index.
type IndexKind int

// Supported index structures.
const (
	// IndexHash supports O(1) equality lookups only.
	IndexHash IndexKind = iota
	// IndexBTree supports ordered traversal and range scans.
	IndexBTree
)

// String returns the SQL spelling used in CREATE INDEX ... USING.
func (k IndexKind) String() string {
	if k == IndexBTree {
		return "BTREE"
	}
	return "HASH"
}

// Index maps one column's values to row IDs. Hash indexes use a bucket map;
// B-tree indexes keep entries ordered for range scans.
//
// Every structural operation synchronizes on the index's own RWMutex:
// only the writer changes an index, but snapshot readers probe
// indexes with no database lock at all, so the per-index lock is
// what keeps a lookup from racing an entry insert. Readers copy matches
// out (appendPostings) or finish the traversal (Range) before resolving row
// visibility, so the lock is never held across row access.
type Index struct {
	Name   string
	Column string
	Col    int // column position in the table schema
	Kind   IndexKind
	Unique bool

	mu   sync.RWMutex
	hash map[hashKey][]int64
	tree *btree
	// nullRows tracks rows whose key is NULL; NULL keys are excluded from
	// uniqueness but still need index maintenance bookkeeping.
	nullRows map[int64]bool
}

func newIndex(name, column string, col int, kind IndexKind, unique bool) *Index {
	idx := &Index{Name: name, Column: column, Col: col, Kind: kind, Unique: unique, nullRows: make(map[int64]bool)}
	idx.reset()
	return idx
}

func (idx *Index) reset() {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	idx.nullRows = make(map[int64]bool)
	if idx.Kind == IndexHash {
		idx.hash = make(map[hashKey][]int64)
		idx.tree = nil
	} else {
		idx.tree = newBTree()
		idx.hash = nil
	}
}

func (idx *Index) insert(key Value, row int64) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if key == nil {
		idx.nullRows[row] = true
		return
	}
	if idx.Kind == IndexHash {
		k := makeHashKey(key)
		idx.hash[k] = append(idx.hash[k], row)
		return
	}
	idx.tree.Insert(key, row)
}

// insertRows adds the entries (rows[i][idx.Col], first+i) of one INSERT
// statement under a single lock acquisition. On a hash index a run of
// consecutive rows sharing a key costs one map access.
func (idx *Index) insertRows(rows [][]Value, first int64) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for i := 0; i < len(rows); {
		key := rows[i][idx.Col]
		switch {
		case key == nil:
			idx.nullRows[first+int64(i)] = true
			i++
		case idx.Kind == IndexBTree:
			idx.tree.Insert(key, first+int64(i))
			i++
		default:
			k := makeHashKey(key)
			ids := idx.hash[k]
			for ; i < len(rows) && rows[i][idx.Col] != nil && makeHashKey(rows[i][idx.Col]) == k; i++ {
				ids = append(ids, first+int64(i))
			}
			idx.hash[k] = ids
		}
	}
}

func (idx *Index) delete(key Value, row int64) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if key == nil {
		delete(idx.nullRows, row)
		return
	}
	if idx.Kind == IndexHash {
		k := makeHashKey(key)
		rows := idx.hash[k]
		for i, r := range rows {
			if r == row {
				rows[i] = rows[len(rows)-1]
				rows = rows[:len(rows)-1]
				break
			}
		}
		if len(rows) == 0 {
			delete(idx.hash, k)
		} else {
			idx.hash[k] = rows
		}
		return
	}
	idx.tree.Delete(key, row)
}

// appendPostings appends the IDs of the rows filed under key to dst. NULL
// matches nothing.
func (idx *Index) appendPostings(dst []int64, key Value) []int64 {
	if key == nil {
		return dst
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if idx.Kind == IndexHash {
		rows := idx.hash[makeHashKey(key)]
		if cap(dst)-len(dst) < len(rows) {
			dst = append(make([]int64, 0, len(dst)+len(rows)), dst...)
		}
		return append(dst, rows...)
	}
	idx.tree.AscendRange(key, key, true, true, true, true, func(_ Value, id int64) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// Range visits rows with keys in [lo,hi] (bounds optional) in key order.
// Only valid on B-tree indexes.
func (idx *Index) Range(lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool, fn func(key Value, row int64) bool) {
	if idx.Kind != IndexBTree {
		return
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	idx.tree.AscendRange(lo, hi, hasLo, hasHi, loIncl, hiIncl, fn)
}

// RangeDesc visits rows with keys in [lo,hi] (bounds optional) in descending
// key order. Only valid on B-tree indexes.
func (idx *Index) RangeDesc(lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool, fn func(key Value, row int64) bool) {
	if idx.Kind != IndexBTree {
		return
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	idx.tree.DescendRange(lo, hi, hasLo, hasHi, loIncl, hiIncl, fn)
}

// NullRowIDs returns the IDs of rows whose key is NULL, in ascending order.
// Index traversals skip NULL keys, so ordered scans serve them separately.
func (idx *Index) NullRowIDs() []int64 {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if len(idx.nullRows) == 0 {
		return nil
	}
	out := make([]int64, 0, len(idx.nullRows))
	for id := range idx.nullRows {
		out = append(out, id)
	}
	sortInt64s(out)
	return out
}
