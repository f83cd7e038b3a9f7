package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Table is the in-memory heap storage for one relation plus its indexes.
// Rows are addressed by a stable, monotonically increasing row ID so that
// indexes can reference rows without caring about physical position.
//
// The table maintains a sorted ID slice so scans walk rows in ID order in
// O(n). Everything a lock-free reader touches — the row map,
// the index map, the ID slice, the row count and the mutation counter —
// is published through atomics or read under rowsMu; mutation happens
// only under the database writer lock plus the exclusive db.mu.
type Table struct {
	Name    string
	Schema  *Schema
	live    atomic.Int64 // live rows
	nextRow int64
	nextSeq int64 // AUTOINCREMENT counter
	idx     atomic.Pointer[indexSet]

	// rows maps each row ID to the head of its version chain (see
	// mvcc.go). rowsMu is the only synchronization point between lock-free
	// readers and the writer: the writer takes it around every row-map
	// mutation, and readers take the read side just long enough to copy
	// the version-head pointer out of the map; version resolution itself
	// happens on atomics, outside any lock.
	rowsMu sync.RWMutex
	rows   map[int64]*rowVersion

	// ids keeps the live row IDs in ascending order so serial scans need no
	// per-call sort. Row IDs are allocated monotonically, so inserts append
	// in O(1); deletes leave tombstones (IDs missing from the row map) that
	// are compacted away once they outnumber the live rows.
	ids  idSlice
	dead int

	// mut counts structural changes to the row set (insert, delete,
	// restore — anything that touches the ID slice, including
	// compaction). Open cursors compare it to re-synchronize their scan
	// position after concurrent writes.
	mut atomic.Uint64

	// hist is the set of row IDs carrying version history: a chain longer
	// than one version or a deletion tombstone. UPDATE and DELETE grow it
	// (an INSERT installs single-version chains), and vacuum walks
	// exactly this set, so reclamation cost follows the number of
	// versioned rows, not table size — an insert-only workload vacuums in
	// O(1). Guarded by histMu, because hasHistory reads it without db.mu.
	histMu sync.Mutex
	hist   map[int64]struct{}
}

// NewTable creates an empty table. A unique index is created automatically
// for the primary key column, if any.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{Name: name, Schema: schema, rows: make(map[int64]*rowVersion)}
	indexes := make(map[string]*Index)
	if pk := schema.PrimaryKeyIndex(); pk >= 0 {
		idx := newIndex(pkIndexName(name), schema.Columns[pk].Name, pk, IndexHash, true)
		indexes[idx.Name] = idx
	}
	t.idx.Store(newIndexSet(indexes))
	return t
}

func pkIndexName(table string) string { return "__pk_" + table }

// head returns the version-chain head of a row. With lock set the map read
// happens under the row-map read lock, as lock-free readers need; the
// writer, holding the database exclusively, passes false.
func (t *Table) head(id int64, lock bool) *rowVersion {
	if !lock {
		return t.rows[id]
	}
	t.rowsMu.RLock()
	h := t.rows[id]
	t.rowsMu.RUnlock()
	return h
}

// setHead publishes v as the row's chain head (nil removes the row) under
// the row-map lock.
func (t *Table) setHead(id int64, v *rowVersion) {
	t.rowsMu.Lock()
	if v == nil {
		delete(t.rows, id)
	} else {
		t.rows[id] = v
	}
	t.rowsMu.Unlock()
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
// the database exclusively).
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
// holds the database exclusively).
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
// provisional (invisible until publishCommit). The row map takes every row
// under one lock acquisition and each index its entries under one. A
// reader never finds an ID whose row is missing: the row map is filled
// before the ID slice (blind appends, row IDs being monotone), indexes
// last.
func (t *Table) installRows(w *writeCtx, rows [][]Value, seq int64) int64 {
	first := t.nextRow + 1
	t.nextRow += int64(len(rows))
	t.nextSeq = seq
	vers := make([]*rowVersion, len(rows))
	for i, row := range rows {
		vers[i] = &rowVersion{row: row}
		vers[i].beg.Store(w.stamp())
	}
	t.rowsMu.Lock()
	for i, v := range vers {
		t.rows[first+int64(i)] = v
	}
	t.rowsMu.Unlock()
	for i := range rows {
		t.ids.append(first + int64(i))
	}
	t.live.Add(int64(len(rows)))
	t.mut.Add(1)
	for _, idx := range t.Indexes() {
		idx.insertRows(rows, first)
	}
	w.installed = append(w.installed, vers...)
	return first
}

// keyInUse reports whether any row whose version is visible under vis
// carries the key in the index's column. Stale index entries (superseded
// keys awaiting vacuum) are filtered by resolving the candidate's visible
// version and comparing its actual key.
func (t *Table) keyInUse(idx *Index, key Value, vis visibility) bool {
	for _, id := range idx.Lookup(key) {
		row := t.get(id, vis)
		if row != nil && row[idx.Col] != nil && Compare(row[idx.Col], key) == 0 {
			return true
		}
	}
	return false
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
// qualifies. With vis.lockRows the version-head copy is the only operation
// under the row-map read lock.
func (t *Table) get(id int64, vis visibility) []Value {
	return t.head(id, vis.lockRows).resolve(vis)
}

// deleteRow installs a deletion tombstone over the row's chain:
// the row map entry, ID-slice entries and index entries all stay (old
// snapshots still resolve the prior version) until vacuum reclaims them.
func (t *Table) deleteRow(w *writeCtx, id int64) *rowVersion {
	head := t.rows[id] // raw read: the writer holds the database exclusively

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
	t.histMu.Lock()
	if t.hist == nil {
		t.hist = make(map[int64]struct{})
	}
	t.hist[id] = struct{}{}
	t.histMu.Unlock()
}

// compactIDs rewrites the global ID slice without tombstones.
func (t *Table) compactIDs() {
	ids := t.ids.load()
	live := make([]int64, 0, len(ids)-t.dead)
	for _, id := range ids {
		if _, ok := t.rows[id]; ok {
			live = append(live, id)
		}
	}
	t.ids.store(live)
	t.dead = 0
	t.mut.Add(1)
}

// undoInsert removes the n rows a now-rolled-back INSERT statement stored
// under the IDs from first on and splices those IDs out of the ID slice
// (no tombstones: the rollback also returns the IDs to the allocator, and a
// tombstone under a reusable ID would collide with the next insert).
func (t *Table) undoInsert(first int64, n int) {
	end := first + int64(n)
	for id := first; id < end; id++ {
		head := t.rows[id]
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
	t.ids.removeRange(first, end)
	t.mut.Add(1)
}

// unlinkVersion reverts a rolled-back write by restoring the
// version's predecessor as the chain head. Index entries the write added
// are removed by the caller (which recorded them), live-count adjustments
// likewise.
func (t *Table) unlinkVersion(id int64, ver *rowVersion) {
	if t.rows[id] != ver {
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
	// Raw head read: the caller holds the database exclusively, so no
	// other writer mutates the map; concurrent lock-free readers only read
	// it.
	head := t.rows[id]
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
// committed tombstone. Caller holds the database writer lock and
// exclusive db.mu (so no provisional versions exist); returns the number
// of versions reclaimed.
func (t *Table) vacuum(horizon uint64) int {
	t.histMu.Lock()
	defer t.histMu.Unlock()
	if len(t.hist) == 0 {
		return 0
	}
	reclaimed := 0
	var dropped []*rowVersion // reused scratch
	for id := range t.hist {
		t.rowsMu.Lock()
		head := t.rows[id]
		if head == nil {
			t.rowsMu.Unlock()
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
			delete(t.rows, id)
		}
		t.rowsMu.Unlock()
		// Index maintenance outside the row-map lock (lock order: index
		// locks are never nested inside it). The chain is mutated only
		// under the writer lock, which we hold.
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
		if fullyDead {
			delete(t.hist, id)
			t.dead++
			t.mut.Add(1)
			if t.dead > 64 && t.dead*2 > len(t.ids.load()) {
				t.compactIDs()
			}
			continue
		}
		if keep == head && head.row != nil {
			delete(t.hist, id) // chain is single-version and live again
		}
	}
	return reclaimed
}

// loadRow installs a row under an explicit ID without constraint checks;
// it backs snapshot/checkpoint loading. Caller sorts the ID slice (via
// finishLoad) once all rows are in.
func (t *Table) loadRow(id int64, row []Value) {
	t.rows[id] = &rowVersion{row: row} // beg 0: committed
	t.ids.append(id)
	t.live.Add(1)
	for _, idx := range t.indexMap() {
		idx.insert(row[idx.Col], id)
	}
}

// finishLoad restores the sorted-ID invariant after a bulk loadRow pass
// whose input order is not trusted.
func (t *Table) finishLoad() {
	t.ids.sortInPlace()
	t.mut.Add(1)
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
// row-ID order until fn returns false. The caller holds the database
// exclusively (Dump, checkpoints), so no row-map lock is taken.
func (t *Table) Scan(fn func(id int64, row []Value) bool) {
	t.scanVis(visibility{snap: snapLatest}, fn)
}

// scanVis visits every row version visible under vis in ascending row-ID
// order until fn returns false. Row-ID order makes scans deterministic,
// which matters for reproducible query output and for the test suite. The
// ID slice is maintained incrementally on insert/delete, so a scan is O(n)
// with no sorting.
func (t *Table) scanVis(vis visibility, fn func(id int64, row []Value) bool) {
	for _, id := range t.ids.load() {
		row := t.head(id, vis.lockRows).resolve(vis)
		if row == nil {
			continue // tombstone, or invisible at this snapshot
		}
		if !fn(id, row) {
			return
		}
	}
}

// sortInt64s sorts a slice of row IDs ascending.
func sortInt64s(ids []int64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// dedupSortedInt64s removes adjacent duplicates from a sorted ID slice.
func dedupSortedInt64s(ids []int64) []int64 {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// createIndex builds a secondary index like the ones writers maintain: one
// (key, row) entry for every key any version of a row's chain carries,
// committed or provisional, so old snapshots and open transactions find
// their rows under the keys they resolve. Uniqueness is checked on the
// rows visible under vis (the creating writer's view). DDL is not
// versioned: snapshots older than the index use it too. Caller holds the
// database exclusively.
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
	for _, id := range t.ids.load() {
		head := t.rows[id]
		if row := head.resolve(vis); unique && row != nil && row[col] != nil {
			k := makeHashKey(row[col])
			if taken[k] {
				return nil, &UniqueError{Table: t.Name, Column: column, Value: row[col]}
			}
			taken[k] = true
		}
		for v := head; v != nil; v = v.next.Load() {
			if v.row != nil && !chainHasKeyBefore(head, v, col) {
				idx.insert(v.row[col], id)
			}
		}
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

// DropIndex removes a secondary index by name.
func (t *Table) DropIndex(name string) error {
	if _, ok := t.indexMap()[name]; !ok {
		return fmt.Errorf("sqldb: no index %q on table %s", name, t.Name)
	}
	t.removeIndex(name)
	return nil
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
