package sqldb

// Concurrent writer tests: per-partition write latching (latch.go).
// Disjoint writers must run concurrently and correctly; overlapping
// writers must resolve to exactly one winner per row; latch waits are
// counted; statements that cannot run latched fall back to the global
// writer path. The multi-writer tests are in the CI race-shake matrix.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// multiWriterDB builds a table large enough that disjoint writers spread
// over every partition.
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

// A held partition latch blocks an overlapping writer and the wait is
// counted in latch_waits. The latch is taken directly (same package), so
// the contention is deterministic, not a scheduling race.
func TestMVCCLatchWaitCounted(t *testing.T) {
	db := multiWriterDB(t, 16)
	tbl := db.table("t")
	before := db.MVCCStats().LatchWaits
	// Row IDs start at 1, so primary key 3 does not live in row 3: latch
	// the partition of the row the index says holds it.
	rowIDs := tbl.indexMap()[pkIndexName("t")].Lookup(int64(3))
	if len(rowIDs) != 1 {
		t.Fatalf("primary key 3 resolves to rows %v, want exactly one", rowIDs)
	}
	ls := tbl.acquireLatches(db, tbl.partIndexes(rowIDs))
	execDone := make(chan error, 1)
	go func() {
		_, err := db.Exec("UPDATE t SET v = 'blocked' WHERE id = 3")
		execDone <- err
	}()
	deadline := time.After(5 * time.Second)
	for db.MVCCStats().LatchWaits == before {
		select {
		case err := <-execDone:
			t.Fatalf("writer finished (err=%v) while its partition latch was held", err)
		case <-deadline:
			t.Fatal("latch_waits never moved while an overlapping writer was blocked")
		case <-time.After(time.Millisecond):
		}
	}
	ls.release()
	if err := <-execDone; err != nil {
		t.Fatalf("blocked writer failed after latch release: %v", err)
	}
	rs, err := db.Query("SELECT v FROM t WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != "blocked" {
		t.Fatalf("v = %v, want the blocked writer's update", rs.Rows[0][0])
	}
}

// Statement eligibility: plain UPDATEs and DELETEs run latched; UPDATEs
// that set a unique-indexed column (the PK here) must take the global
// writer path, because the uniqueness probe is not atomic across
// partition latches. INSERT and DDL are never eligible.
func TestLatchEligibility(t *testing.T) {
	db := multiWriterDB(t, 8)
	cases := []struct {
		sql     string
		latched bool
	}{
		{"UPDATE t SET n = n + 1 WHERE id = 1", true},
		{"UPDATE t SET v = 'x' WHERE n = 0", true},
		{"DELETE FROM t WHERE id = 7", true},
		{"UPDATE t SET id = 100 WHERE id = 1", false}, // sets the PK
		{"INSERT INTO t VALUES (200, 0, 'ins')", false},
		{"CREATE TABLE other (id INTEGER)", false},
	}
	for _, c := range cases {
		p, err := db.stmts.get(db, c.sql).ensure(db)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := latchEligible(p) != nil; got != c.latched {
			t.Errorf("latchEligible(%q) = %v, want %v", c.sql, got, c.latched)
		}
	}
	// The ineligible PK update still executes correctly on the fallback
	// path, and uniqueness stays enforced.
	if _, err := db.Exec("UPDATE t SET id = 100 WHERE id = 1"); err != nil {
		t.Fatalf("PK update on fallback path: %v", err)
	}
	if _, err := db.Exec("UPDATE t SET id = 100 WHERE id = 2"); err == nil {
		t.Fatal("duplicate PK update succeeded")
	} else {
		var ue *UniqueError
		if !errors.As(err, &ue) {
			t.Fatalf("duplicate PK update failed with %v, want UniqueError", err)
		}
	}
}
