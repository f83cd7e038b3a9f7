// Stub of the row-map-lock surface of genmapper/internal/sqldb. The
// mutex field is unexported, so leaking and clean acquisitions both live
// here.
package sqldb

import "sync"

type Table struct {
	rowsMu sync.RWMutex
	ids    []int64
	rows   map[int64][]int64
}

type batchMsg struct {
	ids []int64
	err error
}

// batchProducerClean holds the lock across a run of rows and releases it
// before the channel send on both the invalidation path and the
// steady-state path.
func batchProducerClean(t *Table, gen, cur uint64, ch chan<- batchMsg) {
	for {
		t.rowsMu.RLock()
		if cur != gen {
			t.rowsMu.RUnlock()
			ch <- batchMsg{err: errInvalidated}
			return
		}
		ids := append([]int64(nil), t.ids...)
		t.rowsMu.RUnlock()
		if len(ids) == 0 {
			return
		}
		ch <- batchMsg{ids: ids}
	}
}

// deferredRelease is the other clean shape: the deferred unlock runs on
// every path out, early returns included.
func deferredRelease(t *Table, id int64) []int64 {
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	if t.rows == nil {
		return nil
	}
	return t.rows[id]
}

// releaseOnly helpers discharge a caller's hold; the unmatched unlock is
// clamped, not reported.
func releaseOnly(t *Table) {
	t.rowsMu.RUnlock()
}

func earlyReturnLeak(t *Table, gen, cur uint64) []int64 {
	t.rowsMu.RLock()
	if cur != gen {
		return nil // want `return while holding Table\.rowsMu`
	}
	ids := append([]int64(nil), t.ids...)
	t.rowsMu.RUnlock()
	return ids
}

func endOfBodyLeak(t *Table, out *[]int64) {
	t.rowsMu.Lock() // want `Table\.rowsMu acquired here is not released before function end`
	*out = append(*out, t.ids...)
}

// goroutineLeak shows function literals are analyzed as their own bodies:
// the spawner is clean, the literal leaks.
func goroutineLeak(t *Table, ch chan<- batchMsg) {
	go func() {
		t.rowsMu.RLock()
		if t.rows == nil {
			ch <- batchMsg{err: errInvalidated}
			return // want `return while holding Table\.rowsMu`
		}
		t.rowsMu.RUnlock()
	}()
}

// writeLeak: the exclusive flavor is tracked the same way.
func writeLeak(t *Table, id int64, row []int64) error {
	t.rowsMu.Lock()
	if t.rows == nil {
		return errInvalidated // want `return while holding Table\.rowsMu`
	}
	t.rows[id] = row
	t.rowsMu.Unlock()
	return nil
}

var errInvalidated = errDDL{}

type errDDL struct{}

func (errDDL) Error() string { return "invalidated" }
