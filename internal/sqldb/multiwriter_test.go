package sqldb

// Concurrent writer tests: writers on disjoint rows must all land, and
// overlapping transactions must resolve to exactly one winner per row.
// The multi-writer tests are in the CI race-shake matrix.

import (
	"errors"
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

// Conflict-heavy leg: per round, N transactions capture the same snapshot
// (barrier after Begin) and write the same row. First-committer-wins must
// let exactly one commit; every loser observes ErrWriteConflict.
func TestMVCCMultiWriterConflictOneWinner(t *testing.T) {
	const writers, rounds = 4, 20
	db := multiWriterDB(t, 8)
	totalWins := 0
	for r := 0; r < rounds; r++ {
		var begun, done sync.WaitGroup
		begun.Add(writers)
		done.Add(writers)
		results := make(chan error, writers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer done.Done()
				tx := db.Begin()
				begun.Done()
				begun.Wait() // everyone's snapshot predates every commit
				if _, err := tx.Exec("UPDATE t SET n = ? WHERE id = 3", w); err != nil {
					tx.Rollback()
					results <- err
					return
				}
				results <- tx.Commit()
			}(w)
		}
		done.Wait()
		wins := 0
		for w := 0; w < writers; w++ {
			err := <-results
			if err == nil {
				wins++
				continue
			}
			if !errors.Is(err, ErrWriteConflict) {
				t.Fatalf("round %d: loser failed with %v, want ErrWriteConflict", r, err)
			}
		}
		if wins != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", r, wins)
		}
		totalWins += wins
	}
	if totalWins != rounds {
		t.Fatalf("total winners %d, want %d", totalWins, rounds)
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("leaked snapshot registrations: %+v", st)
	}
}
