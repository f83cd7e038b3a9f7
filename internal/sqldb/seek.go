package sqldb

import (
	"fmt"
	"slices"
)

// Seek hands fn the rows of table whose column col equals a key, found
// through an index on that column, at one snapshot it pins for the whole
// call. Keys are sought one after another, each key's rows in row-ID order
// (the order a SELECT with that key's equality returns them in); fn gets
// the key's position in keys, the number of the key's index postings (an
// upper bound on its rows) and the stored row, which is read-only and
// valid only during the call. fn must not write to the database; an error
// from it ends the seek and is returned. A NULL key matches nothing.
func (db *DB) Seek(table string, col int, keys []Value, fn func(k, n int, row []Value) error) error {
	snap := db.snaps.acquire(db)
	defer db.snaps.release(snap)
	return db.seek(table, col, keys, visibility{snap: snap}, fn)
}

// Seek is DB.Seek at the transaction's snapshot, its own writes included.
func (tx *Tx) Seek(table string, col int, keys []Value, fn func(k, n int, row []Value) error) error {
	if tx.done {
		return errTxFinished
	}
	return tx.db.seek(table, col, keys, tx.vis(), fn)
}

func (db *DB) seek(table string, col int, keys []Value, vis visibility, fn func(k, n int, row []Value) error) error {
	t := db.table(table)
	if t == nil {
		return fmt.Errorf("sqldb: no such table %q", table)
	}
	idx := t.IndexOn(col)
	if idx == nil {
		return fmt.Errorf("sqldb: no index on column %d of %s", col, table)
	}
	s := seeker{idx: idx}
	for k, key := range keys {
		s.seek(nil, key)
		n := len(s.ids)
		for _, row := s.next(t, vis); row != nil; _, row = s.next(t, vis) {
			if err := fn(k, n, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// seeker is the one index-seek access path, under Seek and under the
// planner's equality and IN-list leaf. It walks the postings of its keys
// in row-ID order, resolves each row's version visible at the snapshot
// its caller reads at, and yields each row once, if its column still
// equals one of the keys: an entry outlives an UPDATE of its column until
// vacuum, and a hash bucket files every key that shares its hash, so a
// posting alone proves nothing. A row visible with a key's value is filed
// under that key, so matching any key is matching a key the row is filed
// under. The planner's range leaf walks the rows of a B-tree range the
// same way, with no key: its WHERE re-check does the check.
//
// A seeker holds no table and no snapshot, so that the planner's
// producer, which embeds one, stays in the 80-byte size class.
type seeker struct {
	idx  *Index
	keys []Value // a multi-key seek's keys
	one  Value   // a one-key seek's key (keys nil); a NULL key has no postings
	ids  []int64 // the postings' row IDs, ascending
	pos  int
}

// seek positions s on the postings of keys, or of the one key when keys
// is nil (which allocates no key slice), reusing its buffer.
func (s *seeker) seek(keys []Value, one Value) {
	s.keys, s.one, s.ids, s.pos = keys, one, s.ids[:0], 0
	if keys == nil {
		s.ids = s.idx.appendPostings(s.ids, one)
	}
	for _, key := range keys {
		s.ids = s.idx.appendPostings(s.ids, key)
	}
	s.sort()
}

func (s *seeker) sort() {
	if !slices.IsSorted(s.ids) {
		slices.Sort(s.ids)
	}
}

// next returns the next row of t visible under vis, with its ID, or a nil
// row once the postings are exhausted.
func (s *seeker) next(t *Table, vis visibility) (int64, []Value) {
	for s.pos < len(s.ids) {
		id := s.ids[s.pos]
		s.pos++
		if s.pos > 1 && s.ids[s.pos-2] == id {
			continue // filed under several keys: checked at its first posting
		}
		if row := t.get(id, vis); row != nil && s.matches(row[s.idx.Col]) {
			return id, row
		}
	}
	return 0, nil
}

// matches reports whether v equals one of the seek's keys; a NULL key
// equals nothing, and a walk with no key matches every row.
func (s *seeker) matches(v Value) bool {
	if s.keys == nil {
		return s.one == nil || Compare(v, s.one) == 0
	}
	for _, key := range s.keys {
		if key != nil && Compare(v, key) == 0 {
			return true
		}
	}
	return false
}

// seekProducer emits the rows of a non-ordered index access path over the
// execution's driving relation.
type seekProducer struct {
	s seeker
}

func (p *seekProducer) next(ex *selectExec) (bool, error) {
	base := &ex.p.rels[ex.p.driver]
	if _, row := p.s.next(base.table, ex.vis); row != nil {
		ex.env.SetRow(base.off, row)
		return true, nil
	}
	return false, nil
}

// seeker positions a seeker on a non-ordered index access path, its keys
// or bounds evaluated against the execution's parameters.
func (a *accessPlan) seeker(penv *RowEnv) (seeker, error) {
	s := seeker{idx: a.idx}
	if a.kind == accessRange {
		lo, hi, hasLo, hasHi, empty, err := a.evalBounds(penv)
		if err != nil || empty {
			return s, err
		}
		a.idx.Range(lo, hi, hasLo, hasHi, a.loIncl, a.hiIncl, func(_ Value, id int64) bool {
			s.ids = append(s.ids, id)
			return true
		})
		s.sort()
		return s, nil
	}
	if a.kind == accessEq {
		v, err := a.key.Eval(penv)
		if err == nil {
			s.seek(nil, v)
		}
		return s, err
	}
	keys := make([]Value, len(a.items))
	for i, item := range a.items {
		v, err := item.Eval(penv)
		if err != nil {
			return s, err
		}
		keys[i] = v
	}
	s.seek(keys, nil)
	return s, nil
}
