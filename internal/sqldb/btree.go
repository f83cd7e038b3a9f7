package sqldb

// btree is an in-memory B-tree keyed by (Value, rowID) pairs. Duplicate
// key values are permitted because the row ID participates in the ordering,
// making every entry unique. It backs ordered (B-tree) indexes and range
// scans.
type btree struct {
	root   *btreeNode
	degree int
	size   int
}

type btreeEntry struct {
	key Value
	row int64
}

type btreeNode struct {
	entries  []btreeEntry
	children []*btreeNode // nil for leaves
}

const btreeDegree = 32 // max children per internal node = 2*degree

func newBTree() *btree {
	return &btree{root: &btreeNode{}, degree: btreeDegree}
}

func entryLess(a, b btreeEntry) bool {
	c := Compare(a.key, b.key)
	if c != 0 {
		return c < 0
	}
	return a.row < b.row
}

func (n *btreeNode) isLeaf() bool { return n.children == nil }

// searchEntry returns the insertion position of e in n.entries and whether
// an equal entry exists at that position.
func (n *btreeNode) searchEntry(e btreeEntry) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryLess(n.entries[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.entries) && !entryLess(e, n.entries[lo]) && !entryLess(n.entries[lo], e) {
		return lo, true
	}
	return lo, false
}

// Insert adds (key,row). It is a no-op if the exact pair is present.
func (t *btree) Insert(key Value, row int64) {
	e := btreeEntry{key: key, row: row}
	if len(t.root.entries) >= 2*t.degree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.splitChild(t.root, 0)
	}
	if t.insertNonFull(t.root, e) {
		t.size++
	}
}

func (t *btree) splitChild(parent *btreeNode, i int) {
	child := parent.children[i]
	mid := t.degree - 1
	promoted := child.entries[mid]

	right := &btreeNode{}
	right.entries = append(right.entries, child.entries[mid+1:]...)
	if !child.isLeaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.entries = child.entries[:mid]

	parent.entries = append(parent.entries, btreeEntry{})
	copy(parent.entries[i+1:], parent.entries[i:])
	parent.entries[i] = promoted

	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *btree) insertNonFull(n *btreeNode, e btreeEntry) bool {
	for {
		pos, found := n.searchEntry(e)
		if found {
			return false
		}
		if n.isLeaf() {
			n.entries = append(n.entries, btreeEntry{})
			copy(n.entries[pos+1:], n.entries[pos:])
			n.entries[pos] = e
			return true
		}
		child := n.children[pos]
		if len(child.entries) >= 2*t.degree-1 {
			t.splitChild(n, pos)
			if entryLess(n.entries[pos], e) {
				pos++
			} else if !entryLess(e, n.entries[pos]) {
				return false // promoted entry equals e
			}
		}
		n = n.children[pos]
	}
}

// Delete removes the exact (key,row) pair; it reports whether it was found.
func (t *btree) Delete(key Value, row int64) bool {
	e := btreeEntry{key: key, row: row}
	if !t.delete(t.root, e) {
		return false
	}
	t.size--
	if len(t.root.entries) == 0 && !t.root.isLeaf() {
		t.root = t.root.children[0]
	}
	return true
}

func (t *btree) delete(n *btreeNode, e btreeEntry) bool {
	pos, found := n.searchEntry(e)
	if n.isLeaf() {
		if !found {
			return false
		}
		n.entries = append(n.entries[:pos], n.entries[pos+1:]...)
		return true
	}
	if found {
		left, right := n.children[pos], n.children[pos+1]
		switch {
		case len(left.entries) >= t.degree:
			pred := maxEntry(left)
			n.entries[pos] = pred
			return t.delete(left, pred)
		case len(right.entries) >= t.degree:
			succ := minEntry(right)
			n.entries[pos] = succ
			return t.delete(right, succ)
		default:
			t.mergeChildren(n, pos)
			return t.delete(n.children[pos], e)
		}
	}
	pos = t.ensureChild(n, pos)
	return t.delete(n.children[pos], e)
}

func maxEntry(n *btreeNode) btreeEntry {
	for !n.isLeaf() {
		n = n.children[len(n.children)-1]
	}
	return n.entries[len(n.entries)-1]
}

func minEntry(n *btreeNode) btreeEntry {
	for !n.isLeaf() {
		n = n.children[0]
	}
	return n.entries[0]
}

// mergeChildren merges children[pos], entries[pos] and children[pos+1]
// into a single node stored at children[pos].
func (t *btree) mergeChildren(n *btreeNode, pos int) {
	child, right := n.children[pos], n.children[pos+1]
	child.entries = append(child.entries, n.entries[pos])
	child.entries = append(child.entries, right.entries...)
	if !child.isLeaf() {
		child.children = append(child.children, right.children...)
	}
	n.entries = append(n.entries[:pos], n.entries[pos+1:]...)
	n.children = append(n.children[:pos+1], n.children[pos+2:]...)
}

// ensureChild guarantees the child on the descent path has at least
// `degree` entries by borrowing from a sibling or merging; it returns the
// (possibly shifted) child position to descend into.
func (t *btree) ensureChild(n *btreeNode, pos int) int {
	child := n.children[pos]
	if len(child.entries) >= t.degree {
		return pos
	}
	if pos > 0 && len(n.children[pos-1].entries) >= t.degree {
		left := n.children[pos-1]
		child.entries = append(child.entries, btreeEntry{})
		copy(child.entries[1:], child.entries)
		child.entries[0] = n.entries[pos-1]
		n.entries[pos-1] = left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		if !child.isLeaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
		return pos
	}
	if pos < len(n.children)-1 && len(n.children[pos+1].entries) >= t.degree {
		right := n.children[pos+1]
		child.entries = append(child.entries, n.entries[pos])
		n.entries[pos] = right.entries[0]
		right.entries = append(right.entries[:0], right.entries[1:]...)
		if !child.isLeaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		return pos
	}
	// Merge with a sibling; after merging, the child to descend into is
	// at the merge position.
	if pos == len(n.children)-1 {
		pos--
	}
	t.mergeChildren(n, pos)
	return pos
}

// AscendRange visits entries with lo <= key <= hi (bounds optional via
// hasLo/hasHi; inclusivity controlled by loIncl/hiIncl) in ascending order.
func (t *btree) AscendRange(lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool, fn func(key Value, row int64) bool) {
	t.ascendRange(t.root, lo, hi, hasLo, hasHi, loIncl, hiIncl, fn)
}

func (t *btree) ascendRange(n *btreeNode, lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool, fn func(Value, int64) bool) bool {
	start := 0
	if hasLo {
		// First entry with key >= lo (or > lo when exclusive).
		lo2, hi2 := 0, len(n.entries)
		for lo2 < hi2 {
			mid := (lo2 + hi2) / 2
			c := Compare(n.entries[mid].key, lo)
			if c < 0 || (c == 0 && !loIncl) {
				lo2 = mid + 1
			} else {
				hi2 = mid
			}
		}
		start = lo2
	}
	for i := start; i <= len(n.entries); i++ {
		if !n.isLeaf() {
			if !t.ascendRange(n.children[i], lo, hi, hasLo, hasHi, loIncl, hiIncl, fn) {
				return false
			}
		}
		if i == len(n.entries) {
			break
		}
		e := n.entries[i]
		if hasHi {
			c := Compare(e.key, hi)
			if c > 0 || (c == 0 && !hiIncl) {
				return false
			}
		}
		if !fn(e.key, e.row) {
			return false
		}
	}
	return true
}

// DescendRange visits entries with lo <= key <= hi (bounds optional via
// hasLo/hasHi; inclusivity controlled by loIncl/hiIncl) in descending order.
func (t *btree) DescendRange(lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool, fn func(key Value, row int64) bool) {
	t.descendRange(t.root, lo, hi, hasLo, hasHi, loIncl, hiIncl, fn)
}

func (t *btree) descendRange(n *btreeNode, lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool, fn func(Value, int64) bool) bool {
	end := len(n.entries)
	if hasHi {
		// One past the last entry with key <= hi (or < hi when exclusive).
		lo2, hi2 := 0, len(n.entries)
		for lo2 < hi2 {
			mid := (lo2 + hi2) / 2
			c := Compare(n.entries[mid].key, hi)
			if c < 0 || (c == 0 && hiIncl) {
				lo2 = mid + 1
			} else {
				hi2 = mid
			}
		}
		end = lo2
	}
	for i := end; i >= 0; i-- {
		if !n.isLeaf() {
			if !t.descendRange(n.children[i], lo, hi, hasLo, hasHi, loIncl, hiIncl, fn) {
				return false
			}
		}
		if i == 0 {
			break
		}
		e := n.entries[i-1]
		if hasLo {
			c := Compare(e.key, lo)
			if c < 0 || (c == 0 && !loIncl) {
				return false
			}
		}
		if !fn(e.key, e.row) {
			return false
		}
	}
	return true
}

// Len returns the number of stored entries.
func (t *btree) Len() int { return t.size }
