package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// newScanTestDB builds a database with a populated table `p` of n rows.
//
// Columns: id (pk), grp (0..6 or NULL), val (int), f (float or NULL), s
// (text).
func newScanTestDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, f REAL, s TEXT)")
	rng := rand.New(rand.NewSource(int64(n)))
	words := []string{"alpha", "beta", "gamma", "delta", ""}
	for i := 0; i < n; i++ {
		var grp, f any
		if rng.Intn(8) > 0 {
			grp = int64(rng.Intn(7))
		}
		if rng.Intn(8) > 0 {
			f = float64(rng.Intn(64)) / 10
		}
		mustExec(t, db, "INSERT INTO p VALUES (?, ?, ?, ?, ?)",
			i, grp, int64(rng.Intn(1000)), f, words[rng.Intn(len(words))])
	}
	return db
}

// mustExecErrOK ignores execution errors (concurrent-churn helper: the
// row may already be gone).
func mustExecErrOK(db *DB, sql string, args ...any) {
	_, _ = db.Exec(sql, args...)
}

// TestParallelScanConcurrentWriters streams scans of a table while a writer
// churns it. Each scan reads one snapshot; emission must stay strictly
// ascending by row ID and no row may be emitted twice (run under -race in
// CI).
func TestParallelScanConcurrentWriters(t *testing.T) {
	db := newScanTestDB(t, 5000)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		i := 10000
		for {
			select {
			case <-stop:
				return
			default:
			}
			mustExecErrOK(db, "INSERT INTO p VALUES (?, ?, ?, ?, ?)", i, 1, i, nil, "w")
			mustExecErrOK(db, "DELETE FROM p WHERE id = ?", i-5000)
			mustExecErrOK(db, "UPDATE p SET val = val + 1 WHERE id = ?", i-2000)
			i++
		}
	}()

	for round := 0; round < 10; round++ {
		last := int64(-1)
		err := db.QueryEach("SELECT id FROM p", func(row []Value) error {
			id := row[0].(int64)
			if id <= last {
				return fmt.Errorf("row IDs not strictly ascending: %d after %d", id, last)
			}
			last = id
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	<-writerDone
}
