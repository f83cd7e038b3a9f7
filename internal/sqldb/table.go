package sqldb

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// defaultPartitions is the partition count used when the database has no
// explicit setting: one partition per schedulable CPU, so a batch exchange
// can keep every core busy without oversubscribing.
func defaultPartitions() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// tablePart is one hash partition of a table's row storage. Rows are
// assigned by row ID (id mod partition count), so monotone ID allocation
// round-robins inserts across partitions and keeps them balanced.
//
// Each row maps to the head of its version chain (see mvcc.go). The
// partition lock is the only synchronization point between lock-free MVCC
// readers (and exchange workers) and writers: writers — who
// additionally hold either the database's exclusive lock or this
// partition's write latch — take it around every row-map mutation, and
// readers take the read side just long enough to copy the version-head
// pointer (or materialize a batch) out of the map; version resolution
// itself happens on atomics, outside any lock. Serial lock-mode readers
// run under the database lock and need no partition lock at all.
type tablePart struct {
	mu   sync.RWMutex
	rows map[int64]*rowVersion

	// w is the partition write latch: a latched MVCC UPDATE/DELETE (see
	// latch.go) holds the latches of exactly the partitions it touches —
	// acquired in ascending partition order — instead of the global
	// writer lock, so writers on disjoint partitions run concurrently.
	// The latch spans the whole statement (conflict check through install
	// or undo); p.mu is still taken around each individual map mutation
	// to synchronize with lock-free readers. Lock order: db.mu (shared)
	// < w < Table.histMu < p.mu. Acquired ONLY via Table.acquireLatches.
	w sync.Mutex

	// ids keeps the partition's live row IDs ascending (tombstones allowed,
	// same scheme as the table-level slice), published lock-free so MVCC
	// scans iterate without the partition lock; mut counts structural
	// changes so an exchange worker can re-synchronize its position after
	// concurrent writes, exactly like scanProducer does against the
	// table-level slice.
	ids  idSlice
	dead int
	mut  atomic.Uint64
}

func newTablePart() *tablePart {
	return &tablePart{rows: make(map[int64]*rowVersion)}
}

// compact rewrites the partition's ID slice without tombstones. Caller
// holds p.mu exclusively.
func (p *tablePart) compact() {
	ids := p.ids.load()
	live := make([]int64, 0, len(ids)-p.dead)
	for _, id := range ids {
		if _, ok := p.rows[id]; ok {
			live = append(live, id)
		}
	}
	p.ids.store(live)
	p.dead = 0
	p.mut.Add(1)
}

// Table is the in-memory heap storage for one relation plus its indexes.
// Rows are addressed by a stable, monotonically increasing row ID so that
// indexes can reference rows without caring about physical position.
//
// Row storage is hash-partitioned by row ID: each partition holds its own
// row map, its own sorted live-ID slice and its own lock, so the batch
// exchange can give every partition a dedicated worker. The table
// additionally maintains a global sorted ID slice so serial scans keep
// their O(n), merge-free shape. Everything a lock-free MVCC reader
// touches — the partition list, the index map, the ID slices, the row
// count and the mutation counters — is published through atomics;
// mutation happens only under the database writer lock.
type Table struct {
	Name    string
	Schema  *Schema
	parts   atomic.Pointer[[]*tablePart]
	live    atomic.Int64 // live rows across all partitions
	nextRow int64
	nextSeq int64 // AUTOINCREMENT counter
	idx     atomic.Pointer[indexSet]

	// ids keeps the live row IDs in ascending order so serial scans need no
	// per-call sort or partition merge. Row IDs are allocated monotonically,
	// so inserts append in O(1); deletes leave tombstones (IDs missing from
	// the partition maps) that are compacted away once they outnumber the
	// live rows.
	ids  idSlice
	dead int

	// mut counts structural changes to the row set (insert, delete,
	// restore, truncate, repartition — anything that touches the ID
	// slices, including compaction). Open cursors compare it to
	// re-synchronize their scan position after concurrent writes.
	mut atomic.Uint64

	// hist is the set of row IDs carrying version history: a chain longer
	// than one version or a deletion tombstone. Only MVCC writes grow it
	// (lock-mode chains never exceed one version), and vacuum walks
	// exactly this set, so reclamation cost follows the number of
	// versioned rows, not table size — an insert-only workload vacuums in
	// O(1). Guarded by histMu: latched writers on different partitions
	// append to it concurrently (vacuum additionally holds the database
	// exclusively, which keeps its whole pass coherent).
	histMu sync.Mutex
	hist   map[int64]struct{}
}

// NewTable creates an empty table with the default partition count. A
// unique index is created automatically for the primary key column, if any.
func NewTable(name string, schema *Schema) *Table {
	return NewTablePartitions(name, schema, 0)
}

// NewTablePartitions creates an empty table with n hash partitions
// (n <= 0 selects the default, one per CPU).
func NewTablePartitions(name string, schema *Schema, n int) *Table {
	if n <= 0 {
		n = defaultPartitions()
	}
	t := &Table{Name: name, Schema: schema}
	parts := make([]*tablePart, n)
	for i := range parts {
		parts[i] = newTablePart()
	}
	t.parts.Store(&parts)
	indexes := make(map[string]*Index)
	if pk := schema.PrimaryKeyIndex(); pk >= 0 {
		idx := newIndex(pkIndexName(name), schema.Columns[pk].Name, pk, IndexHash, true)
		indexes[idx.Name] = idx
	}
	t.idx.Store(newIndexSet(indexes))
	return t
}

func pkIndexName(table string) string { return "__pk_" + table }

// partList returns the current partition set (published atomically so
// lock-free readers and repartition never race on the slice header).
func (t *Table) partList() []*tablePart { return *t.parts.Load() }

// part returns the partition owning a row ID.
func (t *Table) part(id int64) *tablePart {
	ps := t.partList()
	return ps[uint64(id)%uint64(len(ps))]
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

// PartitionCount returns the number of hash partitions.
func (t *Table) PartitionCount() int { return len(t.partList()) }

// PartitionRows returns the stored row count of each partition (including
// tombstoned version chains awaiting vacuum).
func (t *Table) PartitionRows() []int {
	parts := t.partList()
	out := make([]int, len(parts))
	for i, p := range parts {
		out[i] = len(p.rows)
	}
	return out
}

// repartition redistributes the rows over n hash partitions, carrying
// whole version chains so snapshot visibility is preserved. The old
// partition objects are left untouched, so an exchange worker that still
// holds a reference reads a frozen (pre-repartition) view until its next
// schema-generation check stops it. Caller holds the database exclusively
// and bumps the schema generation.
func (t *Table) repartition(n int) {
	if n <= 0 {
		n = defaultPartitions()
	}
	old := t.partList()
	if n == len(old) {
		return
	}
	parts := make([]*tablePart, n)
	for i := range parts {
		parts[i] = newTablePart()
	}
	ids := t.ids.load()
	live := make([]int64, 0, len(ids)-t.dead)
	for _, id := range ids {
		head, ok := t.part(id).rows[id]
		if !ok {
			continue // tombstone
		}
		p := parts[uint64(id)%uint64(len(parts))]
		p.rows[id] = head
		p.ids.append(id) // global order ascending => per-part ascending
		live = append(live, id)
	}
	t.parts.Store(&parts)
	t.ids.store(live)
	t.dead = 0
	t.mut.Add(1)
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
// earlier row of rows — or -1. Under MVCC the index may hold entries for
// superseded or uncommitted keys, so membership resolves version
// visibility, not raw entry presence.
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
		if w.mvcc && t.keyInUse(idx, key, w.vis()) || !w.mvcc && idx.containsKey(key) {
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
// IDs and returns the first; it cannot fail. Under MVCC the versions
// install provisional (invisible until publishCommit), in lock mode
// committed. Each partition takes its rows under one lock acquisition and
// each index its entries under one. A reader never finds an ID whose row is
// missing: partition maps are filled before the global ID slice (blind
// appends, row IDs being monotone), indexes last.
func (t *Table) installRows(w *writeCtx, rows [][]Value, seq int64) int64 {
	first := t.nextRow + 1
	t.nextRow += int64(len(rows))
	t.nextSeq = seq
	vers := make([]*rowVersion, len(rows))
	for i, row := range rows {
		vers[i] = &rowVersion{row: row}
		vers[i].beg.Store(w.stamp())
	}
	parts := t.partList()
	np := uint64(len(parts))
	for pi, p := range parts {
		// i is the first row whose ID lands in this partition.
		i := int((uint64(pi) + np - uint64(first)%np) % np)
		if i >= len(rows) {
			continue
		}
		p.mu.Lock()
		for ; i < len(rows); i += len(parts) {
			p.rows[first+int64(i)] = vers[i]
			p.ids.append(first + int64(i))
		}
		p.mut.Add(1)
		p.mu.Unlock()
	}
	for i := range rows {
		t.ids.append(first + int64(i))
	}
	t.live.Add(int64(len(rows)))
	t.mut.Add(1)
	for _, idx := range t.Indexes() {
		idx.insertRows(rows, first)
	}
	if w.mvcc {
		w.installed = append(w.installed, vers...)
	}
	return first
}

// keyInUse reports whether any row whose version is visible under vis
// carries the key in the index's column. This is the chain-aware
// counterpart of Index.containsKey: stale index entries (superseded keys
// awaiting vacuum) are filtered by resolving the candidate's visible
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

// Get returns the newest committed row stored under id, or nil when
// absent (lock-mode visibility).
func (t *Table) Get(id int64) []Value {
	return t.get(id, visLatest)
}

// get resolves the row version visible under vis, or nil when no version
// qualifies. On the lock-free path (vis.lockPart) the version-head copy
// is the only operation under the partition read lock.
func (t *Table) get(id int64, vis visibility) []Value {
	p := t.part(id)
	if vis.lockPart {
		p.mu.RLock()
		head := p.rows[id]
		p.mu.RUnlock()
		return head.resolve(vis)
	}
	return p.rows[id].resolve(vis)
}

// Delete removes the row with the given ID under lock-mode rules (the
// whole version chain is dropped and every chain key leaves the indexes),
// maintaining compaction thresholds. It reports whether a row was removed.
func (t *Table) Delete(id int64) bool {
	p := t.part(id)
	head := p.rows[id]
	if head.resolve(visLatest) == nil {
		return false // absent, or already tombstoned by an MVCC delete
	}
	for _, idx := range t.indexMap() {
		for v := head; v != nil; v = v.next.Load() {
			if v.row != nil {
				idx.delete(v.row[idx.Col], id)
			}
		}
	}
	p.mu.Lock()
	delete(p.rows, id)
	p.dead++
	if p.dead > 16 && p.dead*2 > len(p.ids.load()) {
		p.compact()
	}
	p.mut.Add(1)
	p.mu.Unlock()
	t.histMu.Lock()
	delete(t.hist, id)
	t.histMu.Unlock()
	t.live.Add(-1)
	t.dead++
	t.mut.Add(1)
	if t.dead > 64 && t.dead*2 > len(t.ids.load()) {
		t.compactIDs()
	}
	return true
}

// deleteRow installs an MVCC deletion tombstone over the row's chain:
// the row map entry, ID-slice entries and index entries all stay (old
// snapshots still resolve the prior version) until vacuum reclaims them.
// First-committer-wins: a newest committed version past the writer's
// snapshot fails with ErrWriteConflict.
func (t *Table) deleteRow(w *writeCtx, id int64) (*rowVersion, error) {
	p := t.part(id)
	head := p.rows[id] // raw read: see updateRow

	if head.resolve(w.vis()) == nil {
		return nil, nil // no visible row to delete
	}
	if err := w.conflictCheck(head); err != nil {
		return nil, err
	}
	ver := &rowVersion{} // row == nil: tombstone
	ver.beg.Store(w.stamp())
	ver.next.Store(head)
	p.mu.Lock()
	p.rows[id] = ver
	p.mu.Unlock()
	t.live.Add(-1)
	t.histAdd(id)
	w.installed = append(w.installed, ver)
	return ver, nil
}

// conflictCheck applies first-committer-wins: writing a row whose newest
// version was committed after this transaction's snapshot is a conflict,
// and so is a row currently carrying another in-flight transaction's
// provisional version (writers on the latched path overlap in time; the
// partition latch makes the check-then-install atomic per partition, so
// two writers racing for one row always see each other).
func (w *writeCtx) conflictCheck(head *rowVersion) error {
	if !w.mvcc || head == nil {
		return nil
	}
	b := head.beg.Load()
	if b&provisionalBit != 0 {
		if b&^provisionalBit == w.tx {
			return nil // chaining onto our own provisional version
		}
		return fmt.Errorf("row has a foreign provisional version: %w", ErrWriteConflict)
	}
	if b > w.snap {
		return ErrWriteConflict
	}
	return nil
}

// histAdd records that a row now carries version history. Called by MVCC
// writers on both paths; histMu orders concurrent latched writers.
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
		if _, ok := t.part(id).rows[id]; ok {
			live = append(live, id)
		}
	}
	t.ids.store(live)
	t.dead = 0
	t.mut.Add(1)
}

// undoInsert removes the n rows a now-rolled-back INSERT statement stored
// under the IDs from first on and splices those IDs out of the ID slices
// (no tombstones: the rollback also returns the IDs to the allocator, and a
// tombstone under a reusable ID would collide with the next insert).
func (t *Table) undoInsert(first int64, n int) {
	end := first + int64(n)
	for id := first; id < end; id++ {
		p := t.part(id)
		head := p.rows[id]
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
		p.mu.Lock()
		delete(p.rows, id)
		p.mu.Unlock()
		t.live.Add(-1)
	}
	for _, p := range t.partList() {
		p.mu.Lock()
		p.ids.removeRange(first, end)
		p.mut.Add(1)
		p.mu.Unlock()
	}
	t.ids.removeRange(first, end)
	t.mut.Add(1)
}

// restore re-inserts a previously deleted row under its original ID,
// maintaining indexes and the sorted ID slices. It backs lock-mode
// transaction rollback of deletes; the caller guarantees the ID is free.
func (t *Table) restore(id int64, row []Value) {
	p := t.part(id)
	if _, ok := p.rows[id]; ok {
		return
	}
	ver := &rowVersion{row: row} // beg 0: committed, lock-mode rollback
	p.mu.Lock()
	p.rows[id] = ver
	if p.ids.insertSorted(id) {
		p.dead-- // tombstone revived in place
	}
	p.mut.Add(1)
	p.mu.Unlock()
	if t.ids.insertSorted(id) {
		t.dead-- // tombstone revived in place
	}
	t.live.Add(1)
	for _, idx := range t.indexMap() {
		idx.insert(row[idx.Col], id)
	}
	t.mut.Add(1)
}

// unlinkVersion reverts a rolled-back MVCC write by restoring the
// version's predecessor as the chain head. Index entries the write added
// are removed by the caller (which recorded them), live-count adjustments
// likewise. The head comparison happens under p.mu so a latched rollback
// (which holds the partition latch but not the database exclusively)
// cannot race the check against a concurrent reader's head copy.
func (t *Table) unlinkVersion(id int64, ver *rowVersion) {
	p := t.part(id)
	p.mu.Lock()
	if p.rows[id] != ver {
		p.mu.Unlock()
		return // already superseded or removed
	}
	if prev := ver.next.Load(); prev != nil {
		p.rows[id] = prev
	} else {
		delete(p.rows, id)
	}
	p.mu.Unlock()
}

// idxKeyAdd records one index entry added by an MVCC update, so rollback
// can remove exactly the entries the write introduced.
type idxKeyAdd struct {
	idx *Index
	key Value
}

// Update replaces the row with the given ID under lock-mode rules (new
// values already validated/coerced by the caller via coerceRow) and
// maintains indexes eagerly.
func (t *Table) Update(id int64, newRow []Value) error {
	_, _, err := t.updateRow(&writeCtx{}, id, newRow)
	return err
}

// updateRow replaces the row with the given ID. Lock mode swaps in a
// fresh single-version head and maintains index entries eagerly (delete
// old key, insert new), exactly the pre-MVCC behavior. MVCC chains a
// provisional version onto the head, leaves superseded index entries for
// vacuum, and inserts an entry for the new key only when no version of
// the chain already holds it (the index keeps set semantics per (key,
// row) so lookups never yield duplicates); the added entries are returned
// for rollback.
func (t *Table) updateRow(w *writeCtx, id int64, newRow []Value) (*rowVersion, []idxKeyAdd, error) {
	p := t.part(id)
	// Raw head read: the caller holds either the database exclusively or
	// this partition's write latch, so no other writer mutates this map;
	// concurrent lock-free readers only read it.
	head := p.rows[id]
	old := head.resolve(w.vis())
	if old == nil {
		return nil, nil, fmt.Errorf("sqldb: row %d not found in %s", id, t.Name)
	}
	if err := w.conflictCheck(head); err != nil {
		return nil, nil, err
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
		inUse := false
		if w.mvcc {
			inUse = t.keyInUse(idx, nk, w.vis())
		} else {
			inUse = idx.containsKey(nk)
		}
		if inUse {
			return nil, nil, &UniqueError{Table: t.Name, Column: idx.Column, Value: nk}
		}
	}
	if !w.mvcc {
		for _, idx := range t.indexMap() {
			if Compare(old[idx.Col], newRow[idx.Col]) != 0 {
				idx.delete(old[idx.Col], id)
				idx.insert(newRow[idx.Col], id)
			}
		}
		ver := &rowVersion{row: newRow} // beg 0: committed
		p.mu.Lock()
		p.rows[id] = ver
		p.mu.Unlock()
		return nil, nil, nil
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
	p.mu.Lock()
	p.rows[id] = ver
	p.mu.Unlock()
	t.histAdd(id)
	w.installed = append(w.installed, ver)
	return ver, added, nil
}

// undoUpdate reverts the row with the given ID to its pre-update values
// (lock-mode transaction rollback). A no-op when the row no longer exists.
func (t *Table) undoUpdate(id int64, old []Value) {
	p := t.part(id)
	cur := p.rows[id].resolve(visLatest)
	if cur == nil {
		return
	}
	for _, idx := range t.indexMap() {
		if Compare(cur[idx.Col], old[idx.Col]) != 0 {
			idx.delete(cur[idx.Col], id)
			idx.insert(old[idx.Col], id)
		}
	}
	ver := &rowVersion{row: old} // beg 0: committed
	p.mu.Lock()
	p.rows[id] = ver
	p.mu.Unlock()
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
		p := t.part(id)
		p.mu.Lock()
		head := p.rows[id]
		if head == nil {
			p.mu.Unlock()
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
			delete(p.rows, id)
			p.dead++
			if p.dead > 16 && p.dead*2 > len(p.ids.load()) {
				p.compact()
			}
			p.mut.Add(1)
		}
		p.mu.Unlock()
		// Index maintenance outside the partition lock (lock order: index
		// locks are never nested inside partition locks). The chain is
		// mutated only under the writer lock, which we hold.
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
// it backs snapshot/checkpoint loading. Caller sorts the ID slices (via
// finishLoad) once all rows are in.
func (t *Table) loadRow(id int64, row []Value) {
	p := t.part(id)
	p.rows[id] = &rowVersion{row: row} // beg 0: committed
	p.ids.append(id)
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
	for _, p := range t.partList() {
		p.ids.sortInPlace()
		p.mut.Add(1)
	}
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
// row-ID order until fn returns false (lock-mode visibility; the caller
// holds the database lock).
func (t *Table) Scan(fn func(id int64, row []Value) bool) {
	t.scanVis(visLatest, fn)
}

// scanVis visits every row version visible under vis in ascending row-ID
// order until fn returns false. Row-ID order makes scans deterministic,
// which matters for reproducible query output and for the test suite. The
// global ID slice is maintained incrementally on insert/delete, so a scan
// is O(n) with no sorting and no partition merge.
func (t *Table) scanVis(vis visibility, fn func(id int64, row []Value) bool) {
	for _, id := range t.ids.load() {
		p := t.part(id)
		var head *rowVersion
		if vis.lockPart {
			p.mu.RLock()
			head = p.rows[id]
			p.mu.RUnlock()
		} else {
			head = p.rows[id]
		}
		row := head.resolve(vis)
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

// CreateIndex builds a secondary index over one column, populating it from
// the newest committed version of each row. Unique indexes fail if
// existing data violates uniqueness. DDL is not versioned: snapshots
// older than the index see the post-DDL entry set.
func (t *Table) CreateIndex(name, column string, kind IndexKind, unique bool) (*Index, error) {
	if _, dup := t.indexMap()[name]; dup {
		return nil, fmt.Errorf("sqldb: index %q already exists on %s", name, t.Name)
	}
	col := t.Schema.ColumnIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("sqldb: no column %q in table %s", column, t.Name)
	}
	idx := newIndex(name, t.Schema.Columns[col].Name, col, kind, unique)
	var err error
	t.Scan(func(id int64, row []Value) bool {
		key := row[col]
		if unique && key != nil && idx.containsKey(key) {
			err = &UniqueError{Table: t.Name, Column: column, Value: key}
			return false
		}
		idx.insert(key, id)
		return true
	})
	if err != nil {
		return nil, err
	}
	t.setIndex(name, idx)
	return idx, nil
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

// Truncate removes all rows but keeps schema, index definitions and the
// partition layout.
func (t *Table) Truncate() {
	for _, p := range t.partList() {
		p.mu.Lock()
		p.rows = make(map[int64]*rowVersion)
		p.ids.store(nil)
		p.dead = 0
		p.mut.Add(1)
		p.mu.Unlock()
	}
	t.ids.store(nil)
	t.dead = 0
	t.live.Store(0)
	t.histMu.Lock()
	t.hist = nil
	t.histMu.Unlock()
	t.mut.Add(1)
	for _, idx := range t.indexMap() {
		idx.reset()
	}
}
