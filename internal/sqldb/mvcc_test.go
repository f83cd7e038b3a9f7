package sqldb

// Snapshot-isolation tests: visibility rules, read-your-own-writes,
// rollback unlinking, vacuum reclamation, and the headline property —
// readers never block on writers.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mvccDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	// Pin the background vacuum far away: these tests assert the results
	// of explicit Vacuum calls, which a background pass would race.
	db.setVacuumInterval(time.Hour)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)")
	mustExec(t, db, "CREATE INDEX idx_k ON t (k)")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?)", i, i%10, fmt.Sprintf("val%d", i))
	}
	return db
}

func countRows(t *testing.T, q func(string, ...any) (*ResultSet, error), sql string, args ...any) int64 {
	t.Helper()
	rs, err := q(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows[0][0].(int64)
}

// A cursor opened before a commit must keep streaming the pre-commit
// state; a query issued after the commit sees the new state.
func TestMVCCCursorSnapshotStability(t *testing.T) {
	db := mvccDB(t)
	cur, err := db.QueryCursor("SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// Drain a prefix, then land a commit that would change the result.
	for i := 0; i < 10; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "DELETE FROM t WHERE id >= 50")
	mustExec(t, db, "INSERT INTO t VALUES (1000, 0, 'new')")
	n := 10
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("snapshot cursor streamed %d rows, want the 100 visible at open", n)
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t"); got != 51 {
		t.Fatalf("post-commit count = %d, want 51", got)
	}
}

// Reads inside a transaction observe the Begin snapshot plus the
// transaction's own writes. (No commit can land beside an open
// transaction; a snapshot's stability across commits is the cursor
// tests' subject.)
func TestMVCCRepeatableReads(t *testing.T) {
	db := mvccDB(t)
	tx := db.Begin()
	defer tx.Rollback()
	if got := countRows(t, tx.Query, "SELECT COUNT(*) FROM t"); got != 100 {
		t.Fatalf("transaction counts %d rows, want 100", got)
	}
	// Read-your-own-writes: the tx sees its provisional insert, the
	// outside world does not.
	if _, err := tx.Exec("INSERT INTO t VALUES (2000, 5, 'mine')"); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, tx.Query, "SELECT COUNT(*) FROM t WHERE id = 2000"); got != 1 {
		t.Fatal("transaction does not see its own provisional write")
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t WHERE id = 2000"); got != 0 {
		t.Fatal("provisional write leaked to a snapshot reader before commit")
	}
}

// Rollback unlinks provisional versions: nothing the transaction wrote is
// ever visible, and the abort is counted.
func TestMVCCRollbackUnlinksProvisional(t *testing.T) {
	db := mvccDB(t)
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE t SET v = 'doomed' WHERE k = 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM t WHERE k = 4"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (3000, 1, 'doomed')"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t WHERE v = 'doomed'"); got != 0 {
		t.Fatalf("%d rolled-back rows visible", got)
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t"); got != 100 {
		t.Fatalf("count = %d after rollback, want 100", got)
	}
	if db.MVCCStats().Aborts == 0 {
		t.Fatal("abort counter did not move")
	}
}

// Vacuum reclaims versions below the oldest active snapshot — and not the
// versions an open snapshot still needs.
func TestMVCCVacuumReclaims(t *testing.T) {
	db := mvccDB(t)
	// Pin a snapshot with an open cursor, then pile up versions.
	cur, err := db.QueryCursor("SELECT COUNT(*) FROM t WHERE id = 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, db, "UPDATE t SET v = ? WHERE id = 0", fmt.Sprintf("rev%d", i))
	}
	if got := db.Vacuum(); got != 0 {
		t.Fatalf("vacuum reclaimed %d versions below a pinned snapshot", got)
	}
	cur.Close()
	if got := db.Vacuum(); got == 0 {
		t.Fatal("vacuum reclaimed nothing after the snapshot released")
	}
	// The surviving state is the newest committed version.
	rs, err := db.Query("SELECT v FROM t WHERE id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != "rev4" {
		t.Fatalf("v = %v after vacuum, want rev4", rs.Rows[0][0])
	}
	// Deleted rows become tombstones; vacuum physically drops them once
	// no snapshot can see them.
	mustExec(t, db, "DELETE FROM t WHERE id >= 90")
	if got := db.Vacuum(); got < 10 {
		t.Fatalf("vacuum reclaimed %d versions, want the 10 tombstoned rows", got)
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t"); got != 90 {
		t.Fatalf("count = %d after tombstone vacuum, want 90", got)
	}
	if st := db.MVCCStats(); st.VacuumRuns == 0 || st.VersionsVacuumed == 0 {
		t.Fatalf("vacuum stats did not move: %+v", st)
	}
}

// Updating an indexed column leaves the old key's index entry until
// vacuum; lookups through either key must respect snapshot visibility.
func TestMVCCIndexVisibilityAcrossKeyChange(t *testing.T) {
	db := mvccDB(t)
	cur, err := db.QueryCursor("SELECT id FROM t WHERE k = 3 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	mustExec(t, db, "UPDATE t SET k = 777 WHERE id = 3") // was k=3
	// Latest snapshot: the row answers only to its new key.
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t WHERE k = 3 AND id = 3"); got != 0 {
		t.Fatal("stale index entry leaked a superseded key into a new snapshot")
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t WHERE k = 777"); got != 1 {
		t.Fatal("new key not reachable through the index")
	}
	// The pinned pre-update snapshot still finds it under the old key.
	n := 0
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("pre-update snapshot saw %d rows for k=3, want 10", n)
	}
}

// The headline regression test: a held writer lock (a write statement in
// progress holds db.writer) must not stall an MVCC snapshot read.
func TestMVCCReaderNotBlockedByHeldWriterLock(t *testing.T) {
	db := mvccDB(t)
	// Seize the lock exactly as a write statement does, and hold it.
	db.writer.Lock()
	release := make(chan struct{})
	go func() {
		<-release
		db.writer.Unlock()
	}()
	defer close(release)

	done := make(chan error, 1)
	go func() {
		rs, err := db.Query("SELECT COUNT(*) FROM t")
		if err == nil && rs.Rows[0][0] != int64(100) {
			err = fmt.Errorf("count = %v", rs.Rows[0][0])
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot read stalled behind a held writer lock")
	}
}

// Concurrent-transactions oracle: one writer commits batches with a known
// invariant while readers snapshot-read; every read must observe exactly
// a committed prefix (all-or-nothing per transaction), and in-tx reads
// must be repeatable. Run with -race in CI.
func TestMVCCConcurrentCommittedPrefix(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	const accounts = 10
	for i := 0; i < accounts; i++ {
		mustExec(t, db, "INSERT INTO acct VALUES (?, ?)", i, 100)
	}

	// Writer: transfer between accounts in transactions; total balance is
	// invariant, so any reader observing a partial transaction sees a
	// wrong SUM.
	var stop atomic.Bool
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			from, to := i%accounts, (i+3)%accounts
			tx := db.Begin()
			_, err1 := tx.Exec("UPDATE acct SET bal = bal - 1 WHERE id = ?", from)
			_, err2 := tx.Exec("UPDATE acct SET bal = bal + 1 WHERE id = ?", to)
			if err1 != nil || err2 != nil {
				tx.Rollback()
				// Any error is real.
				writerErr = errors.Join(err1, err2)
				return
			}
			if err := tx.Commit(); err != nil {
				writerErr = err
				return
			}
		}
	}()

	const readers = 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rs, err := db.Query("SELECT SUM(bal), COUNT(*) FROM acct")
				if err != nil {
					errs <- err
					return
				}
				if sum, n := rs.Rows[0][0].(int64), rs.Rows[0][1].(int64); sum != int64(accounts*100) || n != accounts {
					errs <- fmt.Errorf("torn read: SUM=%d COUNT=%d (want %d/%d)", sum, n, accounts*100, accounts)
					return
				}
				// Repeatable reads inside a read-only transaction, which
				// takes its turn with the writer.
				tx := db.Begin()
				a, err := tx.Query("SELECT bal FROM acct WHERE id = 0")
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				b, err := tx.Query("SELECT bal FROM acct WHERE id = 0")
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if a.Rows[0][0] != b.Rows[0][0] {
					tx.Rollback()
					errs <- fmt.Errorf("non-repeatable read in tx: %v then %v", a.Rows[0][0], b.Rows[0][0])
					return
				}
				tx.Rollback()
			}
			errs <- nil
		}()
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	if st := db.MVCCStats(); st.Commits == 0 {
		t.Fatalf("writer never committed: %+v", st)
	}
}

// Mixed concurrent load across every read path (point, range via index,
// full scan, aggregate, cursor stream) against single-statement writers.
// Asserts only engine invariants — no torn rows, no errors — and exists
// to give the race detector surface area over the lock-free paths.
func TestMVCCConcurrentMixedPaths(t *testing.T) {
	db := mvccDB(t)
	var stop atomic.Bool
	errs := make(chan error, 8)

	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() { // writer: updates, deletes, inserts, occasional vacuum
		defer writerDone.Done()
		for i := 0; !stop.Load(); i++ {
			var err error
			switch i % 4 {
			case 0:
				_, err = db.Exec("UPDATE t SET v = ? WHERE id = ?", fmt.Sprintf("w%d", i), i%100)
			case 1:
				// The row case 2 inserted 99 iterations ago: deletes hit
				// real rows, and the table stays small however fast the
				// writer runs, so the readers' scans do not slow with it.
				_, err = db.Exec("DELETE FROM t WHERE id = ?", 200+i-99)
			case 2:
				_, err = db.Exec("INSERT INTO t VALUES (?, ?, ?)", 200+i, i%10, "ins")
			case 3:
				db.Vacuum()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	queries := []string{
		"SELECT v FROM t WHERE id = 42",
		"SELECT COUNT(*) FROM t WHERE k = 5",
		"SELECT COUNT(*), MIN(id), MAX(id) FROM t",
		"SELECT id, v FROM t WHERE k < 8 ORDER BY id LIMIT 20",
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				q := queries[(r+i)%len(queries)]
				if i%7 == 0 {
					cur, err := db.QueryCursor(q)
					if err != nil {
						errs <- err
						return
					}
					for {
						row, err := cur.Next()
						if err != nil || row == nil {
							break
						}
					}
					cur.Close()
					continue
				}
				if _, err := db.Query(q); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	readers.Wait()
	stop.Store(true)
	writerDone.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("leaked snapshot registrations: %+v", st)
	}
}

// The epoch advances once per commit and snapshots release: basic stats
// accounting a monitoring endpoint can rely on.
func TestMVCCStatsAccounting(t *testing.T) {
	db := mvccDB(t)
	st0 := db.MVCCStats()
	mustExec(t, db, "UPDATE t SET v = 'x' WHERE id = 1")
	mustExec(t, db, "UPDATE t SET v = 'y' WHERE id = 2")
	st := db.MVCCStats()
	if st.Epoch != st0.Epoch+2 || st.Commits != st0.Commits+2 {
		t.Fatalf("epoch/commits did not advance per commit: %+v -> %+v", st0, st)
	}
	if st.ActiveSnapshots != 0 {
		t.Fatalf("idle database reports %d active snapshots", st.ActiveSnapshots)
	}
	// A statement that changes nothing publishes nothing.
	mustExec(t, db, "UPDATE t SET v = 'z' WHERE id = -1")
	if got := db.MVCCStats().Epoch; got != st.Epoch {
		t.Fatalf("no-op statement advanced the epoch: %d -> %d", st.Epoch, got)
	}
}

// Stale index entries from a deleted row must not resurrect it through
// any indexed access shape (equality, IN, range).
func TestMVCCDeletedRowNotResurrectedViaIndex(t *testing.T) {
	db := mvccDB(t)
	mustExec(t, db, "DELETE FROM t WHERE id = 33") // k = 3
	for _, q := range []string{
		"SELECT COUNT(*) FROM t WHERE k = 3 AND id = 33",
		"SELECT COUNT(*) FROM t WHERE k IN (3) AND id = 33",
		"SELECT COUNT(*) FROM t WHERE k >= 3 AND k <= 3 AND id = 33",
	} {
		if got := countRows(t, db.Query, q); got != 0 {
			t.Fatalf("%s = %d, want 0", q, got)
		}
	}
}
