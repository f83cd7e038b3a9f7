package sqldb

import "errors"

// Per-partition write latching: UPDATE and DELETE statements do not take
// the global writer lock. Instead they hold db.mu SHARED — which keeps out
// whole-database operations (DDL, vacuum, checkpoint, the INSERT global
// path) — plus the write latches
// (tablePart.w) of exactly the partitions they touch, so statements on
// disjoint partitions execute and commit concurrently and serialize only
// on db.commitMu around the WAL append + epoch publication.
//
// Because the candidate rows are not known until the WHERE clause runs,
// latching is optimistic: an unlatched prescan seeds the latch set, the
// latches are acquired in ascending partition order (the total order the
// lockorder analyzer checks), and the candidates are re-collected under
// the latches. If the authoritative set touches partitions outside the
// latch set (a row moved into the predicate between prescan and latch),
// the latches are released and the set grows monotonically — bounded by
// the partition count, so the loop always terminates.

// latchSet is the ordered set of partition write latches one latched
// statement holds.
type latchSet struct {
	parts []*tablePart
}

// acquireLatches locks the write latches of the partitions named by idxs
// — which MUST be sorted ascending and duplicate-free — and returns the
// set to release. Contended acquisitions (latch already held, so this
// writer overlaps another on that partition) count into latch_waits.
func (t *Table) acquireLatches(db *DB, idxs []int) *latchSet {
	ps := t.partList()
	ls := &latchSet{parts: make([]*tablePart, 0, len(idxs))}
	for _, i := range idxs {
		p := ps[i]
		if !p.w.TryLock() {
			db.latchWaits.Add(1)
			p.w.Lock()
		}
		ls.parts = append(ls.parts, p)
	}
	return ls
}

// release unlocks every held latch (reverse order). Safe to call once per
// acquireLatches on every path; gmlint's partlock checks the pairing.
func (ls *latchSet) release() {
	for i := len(ls.parts) - 1; i >= 0; i-- {
		ls.parts[i].w.Unlock()
	}
	ls.parts = nil
}

// partIndexes returns the sorted, duplicate-free partition indexes owning
// the given row IDs.
func (t *Table) partIndexes(ids []int64) []int {
	n := len(t.partList())
	seen := make([]bool, n)
	count := 0
	for _, id := range ids {
		i := int(uint64(id) % uint64(n))
		if !seen[i] {
			seen[i] = true
			count++
		}
	}
	out := make([]int, 0, count)
	for i, s := range seen {
		if s {
			out = append(out, i)
		}
	}
	return out
}

// containsAllSorted reports whether sorted set have contains every element
// of sorted set want.
func containsAllSorted(have, want []int) bool {
	j := 0
	for _, w := range want {
		for j < len(have) && have[j] < w {
			j++
		}
		if j == len(have) || have[j] != w {
			return false
		}
	}
	return true
}

// unionSorted merges two sorted, duplicate-free int sets.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// latchEligible extracts the write plan a statement can run latched with,
// or nil when it must take the global writer path: INSERT and DDL (row-ID
// and AUTOINCREMENT allocation must follow WAL order), and UPDATEs that
// set a unique-indexed column — the uniqueness probe and the index insert
// are not atomic across partitions, so two latched writers on different
// partitions could both pass the probe for the same key. DELETE never
// inserts index entries (the tombstone leaves reclamation to vacuum), so
// it is always eligible. Callers hold db.mu at least shared, which keeps
// the index set stable under the check.
func latchEligible(p *prepared) *writePlan {
	switch {
	case p.upd != nil:
		for _, idx := range p.upd.t.indexMap() {
			if !idx.Unique {
				continue
			}
			for _, pos := range p.upd.setPos {
				if pos == idx.Col {
					return nil
				}
			}
		}
		return &p.upd.writePlan
	case p.del != nil:
		return &p.del.writePlan
	}
	return nil
}

// collectLatched runs the latch-validate loop for one latched statement:
// prescan without latches, latch the candidate partitions in order,
// re-collect authoritatively, grow and retry until covered. On success
// the returned latch set is HELD and the returned IDs all live in latched
// partitions; on error no latch is held.
func (db *DB) collectLatched(wp *writePlan, vals []Value, w *writeCtx) ([]int64, *latchSet, error) {
	t := wp.t
	ids, err := db.collectMatches(wp, vals, w, false)
	if err != nil {
		return nil, nil, err
	}
	idxs := t.partIndexes(ids)
	for {
		ls := t.acquireLatches(db, idxs)
		ids, err = db.collectMatches(wp, vals, w, true)
		if err != nil {
			ls.release()
			return nil, nil, err
		}
		need := t.partIndexes(ids)
		if containsAllSorted(idxs, need) {
			return ids, ls, nil
		}
		ls.release()
		idxs = unionSorted(idxs, need)
	}
}

// maxLatchedRetries bounds the auto-commit conflict retry loop: an
// auto-commit statement has no snapshot the caller could be holding
// reads against, so a conflict — racing another writer's publication or
// provisional version — is retried on a fresh snapshot a few times
// before surfacing (a row pinned by an idle open transaction stays a
// conflict no matter how often we retry).
const maxLatchedRetries = 4

// execLatched runs one auto-commit UPDATE/DELETE on the latched path.
// handled=false means the statement is not eligible (see latchEligible)
// and the caller must fall back to the global writer path. The returned
// LSN is nonzero when a commit record was appended; the caller waits for
// durability.
func (db *DB) execLatched(s *Stmt, vals []Value) (res Result, lsn uint64, handled bool, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := s.ensure(db)
	if err != nil {
		return Result{}, 0, true, err
	}
	wp := latchEligible(p)
	if wp == nil {
		return Result{}, 0, false, nil
	}
	if err := p.validateExec(vals, errTxnControlExec); err != nil {
		return Result{}, 0, true, err
	}
	for attempt := 0; ; attempt++ {
		res, lsn, err = db.execLatchedOnce(s.sql, p, wp, vals)
		if err == nil || attempt+1 >= maxLatchedRetries || !isWriteConflict(err) {
			return res, lsn, true, err
		}
	}
}

// execLatchedOnce is one attempt of an auto-commit latched statement:
// collect-and-latch, apply, then commit under commitMu (WAL append before
// publication — mvccepoch checks the order). The snapshot is captured
// after the latches are held, so the statement conflicts only with
// provisional versions of transactions still in flight.
func (db *DB) execLatchedOnce(sqlText string, p *prepared, wp *writePlan, vals []Value) (Result, uint64, error) {
	w := &writeCtx{latched: true, tx: db.txSeq.Add(1)}
	w.snap = db.epoch.Load()
	ids, ls, err := db.collectLatched(wp, vals, w)
	if err != nil {
		return Result{}, 0, err
	}
	// Re-capture the snapshot now that the latches are held: every commit
	// that published before this point is visible, so it cannot conflict.
	w.snap = db.epoch.Load()
	undo := &undoLog{}
	var res Result
	if p.upd != nil {
		res, err = db.applyUpdate(p.upd, vals, undo, w, ids)
	} else {
		res, err = db.applyDelete(p.del, undo, w, ids)
	}
	if err != nil {
		undo.rollback(db)
		db.abortProvisional(w.installed)
		ls.release()
		return Result{}, 0, err
	}
	var lsn uint64
	db.commitMu.Lock()
	if d := db.durable; d != nil && len(undo.entries) > 0 {
		lsn, err = d.logCommit([]logStmt{{sql: sqlText, args: vals}})
		if err != nil {
			db.commitMu.Unlock()
			undo.rollback(db)
			db.abortProvisional(w.installed)
			ls.release()
			return Result{}, 0, err
		}
	}
	db.publishCommit(w.installed)
	db.commitMu.Unlock()
	ls.release()
	return res, lsn, nil
}

// execLatchedStmt runs one UPDATE/DELETE statement of an open
// transaction on the latched path. The provisional versions stay in the
// transaction (published at Commit); the latches are held only for the
// statement — between statements the transaction holds nothing, exactly
// as before. Conflicts are NOT retried here: the transaction's snapshot
// is fixed at Begin, so the caller must roll back and retry the whole
// transaction. handled=false sends the caller to the global writer path
// (the statement became ineligible under the shared lock — DDL raced in).
func (tx *Tx) execLatchedStmt(sqlText string, s *Stmt, vals []Value) (Result, bool, error) {
	db := tx.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, err := s.ensure(db)
	if err != nil {
		return Result{}, true, err
	}
	wp := latchEligible(p)
	if wp == nil {
		return Result{}, false, nil
	}
	w := &writeCtx{latched: true, tx: tx.id, snap: tx.snap}
	ids, ls, err := db.collectLatched(wp, vals, w)
	if err != nil {
		return Result{}, true, err
	}
	mark := len(tx.undo.entries)
	var res Result
	if p.upd != nil {
		res, err = db.applyUpdate(p.upd, vals, tx.undo, w, ids)
	} else {
		res, err = db.applyDelete(p.del, tx.undo, w, ids)
	}
	if err != nil {
		// Statement-level atomicity, same contract as the global path.
		tx.undo.rollbackTo(db, mark)
		db.abortProvisional(w.installed)
		ls.release()
		return Result{}, true, err
	}
	tx.installed = append(tx.installed, w.installed...)
	if db.durable != nil && len(tx.undo.entries) > mark {
		tx.logged = append(tx.logged, logStmt{sql: sqlText, args: vals})
	}
	ls.release()
	return res, true, nil
}

// isWriteConflict reports whether err is (or wraps) ErrWriteConflict.
func isWriteConflict(err error) bool {
	return errors.Is(err, ErrWriteConflict)
}
