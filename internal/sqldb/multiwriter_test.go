package sqldb

// Concurrent writer tests: writers on disjoint rows must all land, and
// transactions on one row must all commit, one after another. The
// multi-writer tests are in the CI race-shake matrix.

import (
	"fmt"
	"sync"
	"testing"
)

// multiWriterDB builds a table for concurrent writers.
func multiWriterDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, v TEXT)")
	for i := 0; i < rows; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?)", i, 0, fmt.Sprintf("val%d", i))
	}
	return db
}

// N goroutines auto-commit UPDATEs over disjoint key ranges; every
// increment must land exactly once and nothing may conflict.
func TestMVCCMultiWriterDisjoint(t *testing.T) {
	const writers, rows, rounds = 4, 64, 25
	db := multiWriterDB(t, rows)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for id := w; id < rows; id += writers {
					if _, err := db.Exec("UPDATE t SET n = n + 1 WHERE id = ?", id); err != nil {
						errs <- fmt.Errorf("writer %d round %d id %d: %w", w, r, id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := countRows(t, db.Query, "SELECT SUM(n) FROM t"); got != rows*rounds {
		t.Fatalf("SUM(n) = %d, want %d (lost or duplicated updates)", got, rows*rounds)
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t WHERE n <> ?", rounds); got != 0 {
		t.Fatalf("%d rows have a wrong increment count", got)
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("leaked snapshot registrations: %+v", st)
	}
}

// Same-row leg: N transactions per round begin at once and each adds to
// the same row what it read there. Begin takes the writer, so they run
// one after another: every one commits, each reads its predecessor's
// write, and no increment is lost.
func TestMVCCMultiWriterSameRowSerial(t *testing.T) {
	const writers, rounds = 4, 20
	db := multiWriterDB(t, 8)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := db.Begin()
				rs, err := tx.Query("SELECT n FROM t WHERE id = 3")
				if err == nil {
					_, err = tx.Exec("UPDATE t SET n = ? WHERE id = 3", rs.Rows[0][0].(int64)+1)
				}
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				errs <- tx.Commit()
			}()
		}
		wg.Wait()
		for w := 0; w < writers; w++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
	}
	if got := countRows(t, db.Query, "SELECT n FROM t WHERE id = 3"); got != writers*rounds {
		t.Fatalf("n = %d, want %d (a transaction wrote on a stale read)", got, writers*rounds)
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("leaked snapshot registrations: %+v", st)
	}
}
