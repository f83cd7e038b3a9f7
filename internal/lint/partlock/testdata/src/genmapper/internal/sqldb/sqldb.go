// Stub of the partition-lock surface of genmapper/internal/sqldb. The
// mutex field is unexported, so leaking and clean acquisitions both live
// here.
package sqldb

import "sync"

type tablePart struct {
	mu   sync.RWMutex
	ids  []int64
	rows map[int64][]int64
}

type batchMsg struct {
	ids []int64
	err error
}

// batchProducerClean holds the lock across a run of rows and releases it
// before the channel send on both the invalidation path and the
// steady-state path.
func batchProducerClean(part *tablePart, gen, cur uint64, ch chan<- batchMsg) {
	for {
		part.mu.RLock()
		if cur != gen {
			part.mu.RUnlock()
			ch <- batchMsg{err: errInvalidated}
			return
		}
		ids := append([]int64(nil), part.ids...)
		part.mu.RUnlock()
		if len(ids) == 0 {
			return
		}
		ch <- batchMsg{ids: ids}
	}
}

// deferredRelease is the other clean shape: the deferred unlock runs on
// every path out, early returns included.
func deferredRelease(part *tablePart, id int64) []int64 {
	part.mu.RLock()
	defer part.mu.RUnlock()
	if part.rows == nil {
		return nil
	}
	return part.rows[id]
}

// releaseOnly helpers discharge a caller's hold; the unmatched unlock is
// clamped, not reported.
func releaseOnly(part *tablePart) {
	part.mu.RUnlock()
}

func earlyReturnLeak(part *tablePart, gen, cur uint64) []int64 {
	part.mu.RLock()
	if cur != gen {
		return nil // want `return while holding tablePart\.mu`
	}
	ids := append([]int64(nil), part.ids...)
	part.mu.RUnlock()
	return ids
}

func endOfBodyLeak(part *tablePart, out *[]int64) {
	part.mu.Lock() // want `tablePart\.mu acquired here is not released before function end`
	*out = append(*out, part.ids...)
}

// goroutineLeak shows function literals are analyzed as their own bodies:
// the spawner is clean, the literal leaks.
func goroutineLeak(part *tablePart, ch chan<- batchMsg) {
	go func() {
		part.mu.RLock()
		if part.rows == nil {
			ch <- batchMsg{err: errInvalidated}
			return // want `return while holding tablePart\.mu`
		}
		part.mu.RUnlock()
	}()
}

// writeLeak: the exclusive flavor is tracked the same way.
func writeLeak(part *tablePart, id int64, row []int64) error {
	part.mu.Lock()
	if part.rows == nil {
		return errInvalidated // want `return while holding tablePart\.mu`
	}
	part.rows[id] = row
	part.mu.Unlock()
	return nil
}

var errInvalidated = errDDL{}

type errDDL struct{}

func (errDDL) Error() string { return "invalidated" }

// ---- latch-set obligations ----

type latchSet struct{ parts []*tablePart }

func (ls *latchSet) release() { ls.parts = nil }

type Table struct{ parts []*tablePart }

type DB struct{}

type writeCtx struct{}

type writePlan struct{ t *Table }

type Value any

func (t *Table) acquireLatches(db *DB, idxs []int) *latchSet {
	return &latchSet{parts: t.parts}
}

// collectLatched itself is clean: the success return transfers the held
// set to the caller, the error paths release first.
func (db *DB) collectLatched(wp *writePlan, vals []Value, w *writeCtx) ([]int64, *latchSet, error) {
	ls := wp.t.acquireLatches(db, nil)
	if vals == nil {
		ls.release()
		return nil, nil, errInvalidated
	}
	return nil, ls, nil
}

// latchedClean mirrors the real latched executor: the producer's error
// guard is exempt (on error nothing is held), every other path releases.
func latchedClean(db *DB, wp *writePlan, vals []Value, w *writeCtx) error {
	ids, ls, err := db.collectLatched(wp, vals, w)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		ls.release()
		return errInvalidated
	}
	ls.release()
	return nil
}

// latchedDeferred: a deferred release discharges every path out.
func latchedDeferred(db *DB, t *Table) int {
	ls := t.acquireLatches(db, nil)
	defer ls.release()
	return len(ls.parts)
}

// latchedTransfer hands the held set to its caller, which is the
// collectLatched contract, not a leak.
func latchedTransfer(db *DB, t *Table) *latchSet {
	ls := t.acquireLatches(db, nil)
	return ls
}

// latchedLeakReturn forgets the release on the early-out path after the
// error guard; only the guard itself is exempt.
func latchedLeakReturn(db *DB, wp *writePlan, vals []Value, w *writeCtx) error {
	ids, ls, err := db.collectLatched(wp, vals, w)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return errInvalidated // want `return while holding partition write latches`
	}
	ls.release()
	return nil
}

// latchedLeakEnd never releases at all.
func latchedLeakEnd(db *DB, t *Table, out *[]int) {
	ls := t.acquireLatches(db, nil) // want `latch set acquired here is not released before function end`
	*out = append(*out, len(ls.parts))
}
