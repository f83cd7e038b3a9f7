package sqldb

import (
	"cmp"
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
	s := seeker{t: t, idx: idx, vis: vis}
	for k, key := range keys {
		s.seek(nil, key)
		n := len(s.hits)
		for _, row := s.next(); row != nil; _, row = s.next() {
			if err := fn(k, n, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// seekHit is one index posting: a row ID and the position of the key it
// is filed under.
type seekHit struct {
	id int64
	k  int
}

// seeker is the one index-seek access path, under Seek and under the
// planner's equality and IN-list leaf. It walks the postings of its keys
// in row-ID order, resolves each row's version visible under vis and
// yields each row once, if its column still equals the key it is filed
// under: an entry outlives an UPDATE of its column until vacuum, and a
// hash bucket files every key that shares its hash, so a posting alone
// proves nothing. The planner's range leaf walks the rows of a B-tree
// range the same way, with no key: its WHERE re-check does the check.
type seeker struct {
	t    *Table
	idx  *Index
	vis  visibility
	keys []Value   // a multi-key seek's keys
	one  Value     // a one-key seek's key (keys nil); a NULL key has no postings
	hits []seekHit // by row ID
	pos  int
	last int64 // the row yielded last; row IDs start at 1
}

// seek positions s on the postings of keys, or of the one key when keys
// is nil (which allocates no key slice), reusing its buffer.
func (s *seeker) seek(keys []Value, one Value) {
	s.keys, s.one, s.hits, s.pos, s.last = keys, one, s.hits[:0], 0, 0
	if keys == nil {
		s.hits = s.idx.appendPostings(s.hits, one, 0)
	}
	for k, key := range keys {
		s.hits = s.idx.appendPostings(s.hits, key, k)
	}
	s.sort()
}

func (s *seeker) sort() {
	byID := func(a, b seekHit) int { return cmp.Compare(a.id, b.id) }
	if !slices.IsSortedFunc(s.hits, byID) {
		slices.SortFunc(s.hits, byID)
	}
}

// next returns the next row and the posting it was found under, or a nil
// row once the postings are exhausted.
func (s *seeker) next() (seekHit, []Value) {
	for s.pos < len(s.hits) {
		h := s.hits[s.pos]
		s.pos++
		if h.id == s.last {
			continue
		}
		key := s.one
		if s.keys != nil {
			key = s.keys[h.k]
		}
		row := s.t.get(h.id, s.vis)
		if row != nil && (key == nil || Compare(row[s.idx.Col], key) == 0) {
			s.last = h.id
			return h, row
		}
	}
	return seekHit{}, nil
}

// seekProducer emits the rows of a non-ordered index access path.
type seekProducer struct {
	rel relBinding
	s   seeker
}

func (p *seekProducer) next(ex *selectExec) (bool, error) {
	if _, row := p.s.next(); row != nil {
		ex.env.SetRow(p.rel.off, row)
		return true, nil
	}
	return false, nil
}

// seeker positions a seeker on a non-ordered index access path, its keys
// or bounds evaluated against the execution's parameters.
func (a *accessPlan) seeker(t *Table, penv *RowEnv, vis visibility) (seeker, error) {
	s := seeker{t: t, idx: a.idx, vis: vis}
	if a.kind == accessRange {
		lo, hi, hasLo, hasHi, empty, err := a.evalBounds(penv)
		if err != nil || empty {
			return s, err
		}
		a.idx.Range(lo, hi, hasLo, hasHi, a.loIncl, a.hiIncl, func(_ Value, id int64) bool {
			s.hits = append(s.hits, seekHit{id: id})
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
