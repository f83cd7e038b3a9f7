package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Table is the in-memory heap storage for one relation plus its indexes.
// Rows are addressed by a stable, monotonically increasing row ID so that
// indexes can reference rows without caring about physical position.
//
// Each row's version-chain head lives in a slot addressed by its row ID
// (see rowChunk), so scans walk rows in ID order with no sort. Everything
// a lock-free reader touches — the chunk list, the slots, the index map
// and the row count — is published through atomics; mutation happens only
// under the database writer lock.
type Table struct {
	Name    string
	Schema  *Schema
	live    atomic.Int64 // live rows
	nextRow int64
	nextSeq int64 // AUTOINCREMENT counter
	idx     atomic.Pointer[indexSet]

	// chunks lists the row chunks that hold at least one row, in
	// ascending key order. A published list never changes: the writer
	// appends past its length (where no reader looks) or publishes a
	// fresh copy.
	chunks atomic.Pointer[[]chunkRef]
	// used counts the occupied slots of each chunk in the chunk list, in
	// the same order. Only the writer reads or writes it.
	used []int

	// hist is the set of row IDs carrying version history: a chain longer
	// than one version or a deletion tombstone. UPDATE and DELETE grow it
	// (an INSERT installs single-version chains), and vacuum walks
	// exactly this set, so reclamation cost follows the number of
	// versioned rows, not table size — an insert-only workload vacuums in
	// O(1). Only the writer touches it.
	hist map[int64]struct{}
}

// rowSlotBits sets the chunk size: one rowChunk holds the slots of
// 2^rowSlotBits consecutive row IDs.
const rowSlotBits = 10

// rowChunk holds the chain heads of 2^rowSlotBits consecutive row IDs, one
// slot each; a nil slot holds no row. Readers load slots atomically; only
// the writer stores them. A chunk is its slots alone: its key lives in the
// chunk list, so a lookup reads keys from one array.
type rowChunk [1 << rowSlotBits]atomic.Pointer[rowVersion]

// chunkRef is one entry of a table's chunk list: the chunk that holds the
// row IDs key<<rowSlotBits through key<<rowSlotBits + 2^rowSlotBits - 1.
type chunkRef struct {
	key   int64
	slots *rowChunk
}

// NewTable creates an empty table. A unique index is created automatically
// for the primary key column, if any.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	indexes := make(map[string]*Index)
	if pk := schema.PrimaryKeyIndex(); pk >= 0 {
		idx := newIndex(pkIndexName(name), schema.Columns[pk].Name, pk, IndexHash, true)
		indexes[idx.Name] = idx
	}
	t.idx.Store(newIndexSet(indexes))
	return t
}

func pkIndexName(table string) string { return "__pk_" + table }

// chunkList returns the published chunk list (immutable, see Table.chunks).
func (t *Table) chunkList() []chunkRef {
	if p := t.chunks.Load(); p != nil {
		return *p
	}
	return nil
}

// findChunk returns the position of the first chunk in cs whose key is at
// least key. Where rows are dense the chunk sits at key - cs[0].key, so the
// binary search is only the fallback.
func findChunk(cs []chunkRef, key int64) int {
	if len(cs) > 0 {
		if i := key - cs[0].key; i >= 0 && i < int64(len(cs)) && cs[i].key == key {
			return int(i)
		}
	}
	return sort.Search(len(cs), func(i int) bool { return cs[i].key >= key })
}

// head returns the version-chain head of a row, or nil when no row lives
// at id. It takes no lock.
func (t *Table) head(id int64) *rowVersion {
	cs := t.chunkList()
	key := id >> rowSlotBits
	if i := findChunk(cs, key); i < len(cs) && cs[i].key == key {
		return cs[i].slots[id&(1<<rowSlotBits-1)].Load()
	}
	return nil
}

// setHead stores v as the row's chain head; nil removes the row. Only the
// writer calls it. A chunk is added when a row needs one and dropped when
// its last row goes, so memory follows the rows, not the highest row ID.
func (t *Table) setHead(id int64, v *rowVersion) {
	cs := t.chunkList()
	key := id >> rowSlotBits
	i := findChunk(cs, key)
	if i == len(cs) || cs[i].key != key {
		if v == nil {
			return
		}
		c := chunkRef{key: key, slots: new(rowChunk)}
		var grown []chunkRef
		if i == len(cs) {
			grown = append(cs, c) // past the published length, where no reader looks
		} else {
			grown = slices.Insert(slices.Clip(cs), i, c) // a fresh copy
		}
		t.chunks.Store(&grown)
		t.used = slices.Insert(t.used, i, 0)
		cs = grown
	}
	slot := &cs[i].slots[id&(1<<rowSlotBits-1)]
	if old := slot.Load(); old == nil && v != nil {
		t.used[i]++
	} else if old != nil && v == nil {
		t.used[i]--
	}
	slot.Store(v)
	if t.used[i] == 0 {
		rest := make([]chunkRef, 0, len(cs)-1)
		rest = append(append(rest, cs[:i]...), cs[i+1:]...)
		t.chunks.Store(&rest)
		t.used = slices.Delete(t.used, i, i+1)
	}
}

// eachHead calls fn with the row ID and chain head of every row from
// row ID from on, in ascending row-ID order, until fn returns false. It
// takes no lock: it walks the chunk list published when it starts.
func (t *Table) eachHead(from int64, fn func(id int64, head *rowVersion) bool) {
	cs := t.chunkList()
	for i := findChunk(cs, from>>rowSlotBits); i < len(cs); i++ {
		base := cs[i].key << rowSlotBits
		for s := max(from-base, 0); s < 1<<rowSlotBits; s++ {
			if h := cs[i].slots[s].Load(); h != nil && !fn(base+s, h) {
				return
			}
		}
	}
}

// indexSet is one published generation of a table's indexes. It is
// copy-on-write: treat it as immutable; republish only through
// setIndex/removeIndex under the database writer lock.
type indexSet struct {
	byName map[string]*Index
	sorted []*Index // in name order
}

func newIndexSet(byName map[string]*Index) *indexSet {
	s := &indexSet{byName: byName, sorted: make([]*Index, 0, len(byName))}
	for _, idx := range byName {
		s.sorted = append(s.sorted, idx)
	}
	sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].Name < s.sorted[j].Name })
	return s
}

// indexMap returns the current name → index map (immutable, see indexSet).
func (t *Table) indexMap() map[string]*Index { return t.idx.Load().byName }

// setIndex publishes a new index under name (copy-on-write, caller holds
// db.writer).
func (t *Table) setIndex(name string, idx *Index) {
	old := t.indexMap()
	next := make(map[string]*Index, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = idx
	t.idx.Store(newIndexSet(next))
}

// removeIndex unpublishes the index under name (copy-on-write, caller
// holds db.writer).
func (t *Table) removeIndex(name string) {
	old := t.indexMap()
	next := make(map[string]*Index, len(old))
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	t.idx.Store(newIndexSet(next))
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return int(t.live.Load()) }

// prepareRows validates and coerces the full-width rows of one INSERT
// statement in place, changing nothing else: NULL AUTOINCREMENT columns
// draw from a private copy of the sequence counter, returned for
// installRows to publish. The error is the one row-at-a-time insertion
// would stop at: the first failing row, its NOT NULL and type errors before
// its UNIQUE violation.
func (t *Table) prepareRows(w *writeCtx, rows [][]Value) (seq int64, err error) {
	seq = t.nextSeq
	for r, row := range rows {
		if seq, err = t.prepareRow(row, seq); err != nil {
			rows = rows[:r] // an earlier row's UNIQUE violation still comes first
			break
		}
	}
	for _, idx := range t.Indexes() {
		if !idx.Unique {
			continue
		}
		if r := t.firstUniqueViolation(w, idx, rows); r >= 0 {
			err = &UniqueError{Table: t.Name, Column: idx.Column, Value: rows[r][idx.Col]}
			rows = rows[:r]
		}
	}
	return seq, err
}

// prepareRow fills one row's NULL AUTOINCREMENT and defaulted columns,
// coerces it in place and returns the advanced AUTOINCREMENT counter.
func (t *Table) prepareRow(row []Value, seq int64) (int64, error) {
	auto := -1
	for i, col := range t.Schema.Columns {
		if col.AutoIncrement {
			auto = i
			if row[i] == nil {
				seq++
				row[i] = seq
			}
		}
		if row[i] == nil {
			row[i] = col.Default
		}
	}
	if err := t.coerceRow(row); err != nil {
		return seq, err
	}
	if auto >= 0 {
		if n, ok := row[auto].(int64); ok && n > seq {
			seq = n // an explicit value moves the counter past itself
		}
	}
	return seq, nil
}

// firstUniqueViolation returns the position of the first row whose non-NULL
// key in the unique index's column is taken — by a stored row or by an
// earlier row of rows — or -1. The index may hold entries for superseded
// or uncommitted keys, so membership resolves version visibility, not raw
// entry presence.
func (t *Table) firstUniqueViolation(w *writeCtx, idx *Index, rows [][]Value) int {
	// The keys of earlier rows, collected only once keys stop ascending
	// strictly: AUTOINCREMENT keys never do and cannot repeat.
	var seen map[hashKey]bool
	var prev Value
	for r, row := range rows {
		key := row[idx.Col]
		if key == nil {
			continue // SQL: NULLs never collide
		}
		if t.keyInUse(idx, key, w.vis()) {
			return r
		}
		if seen == nil && prev != nil && Compare(prev, key) >= 0 {
			seen = make(map[hashKey]bool, len(rows))
			for _, earlier := range rows[:r] {
				seen[makeHashKey(earlier[idx.Col])] = true
			}
		}
		if seen != nil {
			k := makeHashKey(key)
			if seen[k] {
				return r
			}
			seen[k] = true
		}
		prev = key
	}
	return -1
}

// installRows stores rows that prepareRows accepted under consecutive row
// IDs and returns the first; it cannot fail. The versions install
// provisional (invisible until publishCommit). Slots are filled before
// indexes, so a reader never finds an index entry whose row is missing.
func (t *Table) installRows(w *writeCtx, rows [][]Value, seq int64) int64 {
	first := t.nextRow + 1
	t.nextRow += int64(len(rows))
	t.nextSeq = seq
	vers := make([]*rowVersion, len(rows))
	for i, row := range rows {
		vers[i] = &rowVersion{row: row}
		vers[i].beg.Store(w.stamp())
		t.setHead(first+int64(i), vers[i])
	}
	t.live.Add(int64(len(rows)))
	for _, idx := range t.Indexes() {
		idx.insertRows(rows, first)
	}
	w.installed = append(w.installed, vers...)
	return first
}

// keyInUse reports whether any row whose version is visible under vis
// carries the key in the index's column (a seek: stale index entries, the
// superseded keys awaiting vacuum, fail its key check).
func (t *Table) keyInUse(idx *Index, key Value, vis visibility) bool {
	s := seeker{idx: idx}
	s.seek(nil, key)
	_, row := s.next(t, vis)
	return row != nil
}

// UniqueError reports a uniqueness violation on insert or update.
type UniqueError struct {
	Table  string
	Column string
	Value  Value
}

func (e *UniqueError) Error() string {
	return fmt.Sprintf("sqldb: UNIQUE constraint violated: %s.%s = %s", e.Table, e.Column, FormatValue(e.Value))
}

// get resolves the row version visible under vis, or nil when no version
// qualifies.
func (t *Table) get(id int64, vis visibility) []Value {
	return t.head(id).resolve(vis)
}

// deleteRow installs a deletion tombstone over the row's chain: the
// row's slot and index entries stay (old snapshots still resolve the
// prior version) until vacuum reclaims them.
func (t *Table) deleteRow(w *writeCtx, id int64) *rowVersion {
	head := t.head(id)

	if head.resolve(w.vis()) == nil {
		return nil // no visible row to delete
	}
	ver := &rowVersion{} // row == nil: tombstone
	ver.beg.Store(w.stamp())
	ver.next.Store(head)
	t.setHead(id, ver)
	t.live.Add(-1)
	t.histAdd(id)
	w.installed = append(w.installed, ver)
	return ver
}

// histAdd records that a row now carries version history. Called by
// UPDATE and DELETE writers.
func (t *Table) histAdd(id int64) {
	if t.hist == nil {
		t.hist = make(map[int64]struct{})
	}
	t.hist[id] = struct{}{}
}

// undoInsert removes the n rows a now-rolled-back INSERT statement stored
// under the IDs from first on and empties their slots (no tombstones: the
// rollback also returns the IDs to the allocator, and a tombstone under a
// reusable ID would collide with the next insert).
func (t *Table) undoInsert(first int64, n int) {
	end := first + int64(n)
	for id := first; id < end; id++ {
		head := t.head(id)
		if head == nil {
			continue
		}
		for _, idx := range t.Indexes() {
			for v := head; v != nil; v = v.next.Load() {
				if v.row != nil {
					idx.delete(v.row[idx.Col], id)
				}
			}
		}
		t.setHead(id, nil)
		t.live.Add(-1)
	}
}

// unlinkVersion reverts a rolled-back write by restoring the
// version's predecessor as the chain head. Index entries the write added
// are removed by the caller (which recorded them), live-count adjustments
// likewise.
func (t *Table) unlinkVersion(id int64, ver *rowVersion) {
	if t.head(id) != ver {
		return // already superseded or removed
	}
	t.setHead(id, ver.next.Load())
}

// idxKeyAdd records one index entry added by an update, so rollback
// can remove exactly the entries the write introduced.
type idxKeyAdd struct {
	idx *Index
	key Value
}

// updateRow replaces the row with the given ID: it chains a provisional
// version onto the head, leaves superseded index entries for vacuum, and
// inserts an entry for the new key only when no version of the chain
// already holds it (the index keeps set semantics per (key, row) so
// lookups never yield duplicates); the added entries are returned for
// rollback.
func (t *Table) updateRow(w *writeCtx, id int64, newRow []Value) (*rowVersion, []idxKeyAdd, error) {
	head := t.head(id)
	old := head.resolve(w.vis())
	if old == nil {
		return nil, nil, fmt.Errorf("sqldb: row %d not found in %s", id, t.Name)
	}
	for _, idx := range t.indexMap() {
		if !idx.Unique {
			continue
		}
		nk := newRow[idx.Col]
		if nk == nil {
			continue
		}
		if Equal(old[idx.Col], nk) {
			continue // key unchanged
		}
		if t.keyInUse(idx, nk, w.vis()) {
			return nil, nil, &UniqueError{Table: t.Name, Column: idx.Column, Value: nk}
		}
	}
	var added []idxKeyAdd
	for _, idx := range t.indexMap() {
		nk := newRow[idx.Col]
		if Compare(old[idx.Col], nk) == 0 {
			continue
		}
		if !chainHasKey(head, idx.Col, nk) {
			idx.insert(nk, id)
			added = append(added, idxKeyAdd{idx: idx, key: nk})
		}
	}
	ver := &rowVersion{row: newRow}
	ver.beg.Store(w.stamp())
	ver.next.Store(head)
	t.setHead(id, ver)
	t.histAdd(id)
	w.installed = append(w.installed, ver)
	return ver, added, nil
}

// vacuum trims every versioned row's chain to the newest version visible
// at horizon, removes the index entries only the dropped versions kept
// reachable, and physically removes rows whose surviving head is a
// committed tombstone. Caller holds the database writer lock (so no
// provisional versions exist); returns the number of versions reclaimed.
func (t *Table) vacuum(horizon uint64) int {
	if len(t.hist) == 0 {
		return 0
	}
	reclaimed := 0
	var dropped []*rowVersion // reused scratch
	for id := range t.hist {
		head := t.head(id)
		if head == nil {
			delete(t.hist, id)
			continue
		}
		// Cut below the newest version any active or future snapshot can
		// resolve: the first version with beg <= horizon.
		var keep *rowVersion
		for v := head; v != nil; v = v.next.Load() {
			if v.beg.Load() <= horizon {
				keep = v
				break
			}
		}
		dropped = dropped[:0]
		if keep != nil {
			for v := keep.next.Load(); v != nil; v = v.next.Load() {
				dropped = append(dropped, v)
			}
			keep.next.Store(nil)
		}
		fullyDead := keep == head && head.row == nil
		if fullyDead {
			// The surviving head is a committed tombstone: nothing can ever
			// resolve this row again — drop it physically.
			dropped = append(dropped, head)
			t.setHead(id, nil)
		}
		if len(dropped) > 0 {
			remaining := head
			if fullyDead {
				remaining = nil
			}
			for _, idx := range t.indexMap() {
				for _, v := range dropped {
					if v.row == nil {
						continue
					}
					if key := v.row[idx.Col]; remaining == nil || !chainHasKey(remaining, idx.Col, key) {
						idx.delete(key, id)
					}
				}
			}
		}
		reclaimed += len(dropped)
		if keep == head {
			delete(t.hist, id) // gone, or single-version and live again
		}
	}
	return reclaimed
}

// loadRow installs a row under an explicit ID without constraint checks;
// it backs snapshot/checkpoint loading, which checks the IDs first.
func (t *Table) loadRow(id int64, row []Value) {
	t.setHead(id, &rowVersion{row: row}) // beg 0: committed
	t.live.Add(1)
	for _, idx := range t.indexMap() {
		idx.insert(row[idx.Col], id)
	}
}

// coerceRow validates a candidate full row against schema constraints
// (type coercion and NOT NULL), making it canonical in place.
func (t *Table) coerceRow(row []Value) error {
	for i, col := range t.Schema.Columns {
		if row[i] == nil {
			if col.NotNull || col.PrimaryKey {
				return fmt.Errorf("sqldb: NULL in NOT NULL column %s.%s", t.Name, col.Name)
			}
			continue
		}
		cv, err := Coerce(row[i], col.Type)
		if err != nil {
			return fmt.Errorf("sqldb: column %s.%s: %w", t.Name, col.Name, err)
		}
		row[i] = cv
	}
	return nil
}

// Scan visits the newest committed version of every row in ascending
// row-ID order until fn returns false.
func (t *Table) Scan(fn func(id int64, row []Value) bool) {
	t.scanVis(visibility{snap: snapLatest}, fn)
}

// scanVis visits every row version visible under vis in ascending row-ID
// order until fn returns false. Row-ID order makes scans deterministic,
// which matters for reproducible query output and for the test suite.
func (t *Table) scanVis(vis visibility, fn func(id int64, row []Value) bool) {
	t.eachHead(0, func(id int64, head *rowVersion) bool {
		row := head.resolve(vis)
		return row == nil || fn(id, row) // nil: tombstone, or invisible at this snapshot
	})
}

// sortInt64s sorts a slice of row IDs ascending, allocating nothing.
func sortInt64s(ids []int64) {
	slices.Sort(ids)
}

// createIndex builds a secondary index like the ones writers maintain: one
// (key, row) entry for every key any version of a row's chain carries,
// committed or provisional, so old snapshots and open transactions find
// their rows under the keys they resolve. Uniqueness is checked on the
// rows visible under vis (the creating writer's view). DDL is not
// versioned: snapshots older than the index use it too. Caller holds
// db.writer.
func (t *Table) createIndex(name, column string, kind IndexKind, unique bool, vis visibility) (*Index, error) {
	if _, dup := t.indexMap()[name]; dup {
		return nil, fmt.Errorf("sqldb: index %q already exists on %s", name, t.Name)
	}
	col := t.Schema.ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("sqldb: no column %q in table %s", column, t.Name)
	}
	idx := newIndex(name, t.Schema.Columns[col].Name, col, kind, unique)
	var taken map[hashKey]bool
	if unique {
		taken = make(map[hashKey]bool)
	}
	var dup Value
	t.eachHead(0, func(id int64, head *rowVersion) bool {
		if row := head.resolve(vis); unique && row != nil && row[col] != nil {
			k := makeHashKey(row[col])
			if taken[k] {
				dup = row[col]
				return false
			}
			taken[k] = true
		}
		for v := head; v != nil; v = v.next.Load() {
			if v.row != nil && !chainHasKeyBefore(head, v, col) {
				idx.insert(v.row[col], id)
			}
		}
		return true
	})
	if dup != nil {
		return nil, &UniqueError{Table: t.Name, Column: column, Value: dup}
	}
	t.setIndex(name, idx)
	return idx, nil
}

// chainHasKeyBefore reports whether a version newer than v in head's chain
// carries v's key in column col (its index entry already exists).
func chainHasKeyBefore(head, v *rowVersion, col int) bool {
	key := v.row[col]
	for u := head; u != v; u = u.next.Load() {
		if u.row == nil {
			continue
		}
		if k := u.row[col]; k == nil && key == nil || k != nil && key != nil && Compare(k, key) == 0 {
			return true
		}
	}
	return false
}

// IndexOn returns an index whose key column matches the given column index,
// preferring hash indexes for equality lookups. Returns nil when none exists.
func (t *Table) IndexOn(col int) *Index {
	var best *Index
	for _, idx := range t.indexMap() {
		if idx.Col != col {
			continue
		}
		if idx.Kind == IndexHash {
			return idx
		}
		best = idx
	}
	return best
}

// BTreeIndexOn returns a B-tree index on the column, for range scans.
func (t *Table) BTreeIndexOn(col int) *Index {
	for _, idx := range t.indexMap() {
		if idx.Col == col && idx.Kind == IndexBTree {
			return idx
		}
	}
	return nil
}

// Indexes returns the table's indexes in name order. The slice is shared:
// treat it as immutable.
func (t *Table) Indexes() []*Index { return t.idx.Load().sorted }
