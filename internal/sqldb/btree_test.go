package sqldb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTreeInsertAscend(t *testing.T) {
	bt := newBTree()
	const n = 1000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		bt.Insert(int64(v), int64(v))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	var got []int64
	bt.Ascend(func(k Value, row int64) bool {
		got = append(got, k.(int64))
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("out of order at %d: %d >= %d", i, got[i-1], got[i])
		}
	}
	if msg := bt.checkInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	bt := newBTree()
	for row := int64(0); row < 100; row++ {
		bt.Insert("same", row)
	}
	if bt.Len() != 100 {
		t.Fatalf("Len = %d, want 100 (duplicate keys with distinct rows)", bt.Len())
	}
	// Exact duplicate (key,row) is a no-op.
	bt.Insert("same", 50)
	if bt.Len() != 100 {
		t.Fatalf("exact duplicate changed Len to %d", bt.Len())
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newBTree()
	const n = 500
	for i := 0; i < n; i++ {
		bt.Insert(int64(i), int64(i))
	}
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(n)
	for i, v := range perm {
		if !bt.Delete(int64(v), int64(v)) {
			t.Fatalf("Delete(%d) returned false", v)
		}
		if bt.Len() != n-i-1 {
			t.Fatalf("Len = %d after %d deletions", bt.Len(), i+1)
		}
		if msg := bt.checkInvariants(); msg != "" {
			t.Fatalf("invariant violated after deleting %d: %s", v, msg)
		}
	}
	if bt.Delete(int64(0), 0) {
		t.Fatal("Delete on empty tree returned true")
	}
}

func TestBTreeDeleteMissing(t *testing.T) {
	bt := newBTree()
	bt.Insert(int64(1), 1)
	if bt.Delete(int64(1), 2) {
		t.Fatal("Delete with wrong row ID should fail")
	}
	if bt.Delete(int64(2), 1) {
		t.Fatal("Delete with missing key should fail")
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", bt.Len())
	}
}

func TestBTreeRange(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(int64(i), int64(i))
	}
	collect := func(lo, hi Value, hasLo, hasHi, loIncl, hiIncl bool) []int64 {
		var out []int64
		bt.AscendRange(lo, hi, hasLo, hasHi, loIncl, hiIncl, func(k Value, _ int64) bool {
			out = append(out, k.(int64))
			return true
		})
		return out
	}
	got := collect(int64(10), int64(15), true, true, true, true)
	want := []int64{10, 11, 12, 13, 14, 15}
	if !equalInt64s(got, want) {
		t.Errorf("inclusive range = %v, want %v", got, want)
	}
	got = collect(int64(10), int64(15), true, true, false, false)
	want = []int64{11, 12, 13, 14}
	if !equalInt64s(got, want) {
		t.Errorf("exclusive range = %v, want %v", got, want)
	}
	got = collect(int64(95), nil, true, false, true, true)
	want = []int64{95, 96, 97, 98, 99}
	if !equalInt64s(got, want) {
		t.Errorf("open upper range = %v, want %v", got, want)
	}
	got = collect(nil, int64(3), false, true, true, true)
	want = []int64{0, 1, 2, 3}
	if !equalInt64s(got, want) {
		t.Errorf("open lower range = %v, want %v", got, want)
	}
}

func TestBTreeEarlyStop(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(int64(i), int64(i))
	}
	count := 0
	bt.Ascend(func(Value, int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d entries, want 5", count)
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBTreeInvariantsProperty drives the tree with random operation
// sequences and validates structural invariants throughout.
func TestBTreeInvariantsProperty(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		bt := newBTree()
		live := map[int64]bool{}
		rng := rand.New(rand.NewSource(seed))
		for _, raw := range opsRaw {
			v := int64(raw % 256)
			if rng.Intn(3) > 0 {
				bt.Insert(v, v)
				live[v] = true
			} else {
				got := bt.Delete(v, v)
				if got != live[v] {
					return false
				}
				delete(live, v)
			}
			if bt.Len() != len(live) {
				return false
			}
		}
		if msg := bt.checkInvariants(); msg != "" {
			t.Logf("invariant: %s", msg)
			return false
		}
		// Content check.
		seen := map[int64]bool{}
		bt.Ascend(func(k Value, _ int64) bool {
			seen[k.(int64)] = true
			return true
		})
		if len(seen) != len(live) {
			return false
		}
		for v := range live {
			if !seen[v] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBTreeDepthGrowth(t *testing.T) {
	bt := newBTree()
	if bt.depth() != 1 {
		t.Fatalf("empty tree depth = %d", bt.depth())
	}
	for i := 0; i < 10000; i++ {
		bt.Insert(int64(i), int64(i))
	}
	if d := bt.depth(); d < 2 || d > 5 {
		t.Fatalf("depth after 10k inserts = %d, expected small logarithmic depth", d)
	}
}

// Ascend visits all entries in order until fn returns false.
func (t *btree) Ascend(fn func(key Value, row int64) bool) {
	t.ascend(t.root, fn)
}

func (t *btree) ascend(n *btreeNode, fn func(Value, int64) bool) bool {
	for i, e := range n.entries {
		if !n.isLeaf() && !t.ascend(n.children[i], fn) {
			return false
		}
		if !fn(e.key, e.row) {
			return false
		}
	}
	if !n.isLeaf() {
		return t.ascend(n.children[len(n.children)-1], fn)
	}
	return true
}

// depth returns the height of the tree (for invariant tests).
func (t *btree) depth() int {
	d := 1
	for n := t.root; !n.isLeaf(); n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants validates B-tree structural invariants; it returns a
// descriptive string for the first violation found, or "" when valid.
// Used by property-based tests.
func (t *btree) checkInvariants() string {
	var prev *btreeEntry
	ok := ""
	depth := -1
	var walk func(n *btreeNode, d int, root bool) bool
	walk = func(n *btreeNode, d int, root bool) bool {
		if !root {
			if len(n.entries) < t.degree-1 {
				ok = "underfull node"
				return false
			}
		}
		if len(n.entries) > 2*t.degree-1 {
			ok = "overfull node"
			return false
		}
		if n.isLeaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				ok = "leaves at different depths"
				return false
			}
		} else if len(n.children) != len(n.entries)+1 {
			ok = "children/entries count mismatch"
			return false
		}
		for i := range n.entries {
			if !n.isLeaf() && !walk(n.children[i], d+1, false) {
				return false
			}
			e := n.entries[i]
			if prev != nil && !entryLess(*prev, e) {
				ok = "entries out of order"
				return false
			}
			ecopy := e
			prev = &ecopy
		}
		if !n.isLeaf() {
			return walk(n.children[len(n.children)-1], d+1, false)
		}
		return true
	}
	walk(t.root, 0, true)
	return ok
}
