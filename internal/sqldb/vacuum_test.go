package sqldb

// Background vacuum and snapshot-release regression tests. The leak tests pin the snapshot tracker to zero after every
// failure shape a statement or cursor can take — a leaked registration
// silently pins the vacuum horizon forever.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// vacuumerRunning reports whether the background vacuum goroutine is
// registered.
func vacuumerRunning(db *DB) bool {
	db.writer.Lock()
	defer db.writer.Unlock()
	return db.vac != nil
}

// historyLeft reports whether any table carries version history. Caller
// holds db.writer.
func historyLeft(db *DB) bool {
	for _, t := range db.tableMap() {
		if len(t.hist) > 0 {
			return true
		}
	}
	return false
}

// The vacuumer retires under the writer, so no commit can add history
// between its last pass and its retirement. With a 1 ms tick it retires and
// restarts round after round beside committed UPDATEs, while a sampler
// checks under the writer that history never sits without a vacuumer; at
// the end history has drained and the goroutine is gone.
func TestVacuumerRetiresBesideCommits(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.setVacuumInterval(time.Millisecond)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, 0)", i)
	}
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		orphaned := 0
		for {
			select {
			case <-stop:
				sampled <- orphaned
				return
			default:
			}
			db.writer.Lock()
			if historyLeft(db) && db.vac == nil {
				orphaned++
			}
			db.writer.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for round := 0; round < 20; round++ {
		for i := 0; i < 40; i++ {
			mustExec(t, db, "UPDATE t SET v = ? WHERE id = ?", round*40+i, i%8)
		}
		waitFor(t, "the vacuumer to drain history and retire", func() bool { return !vacuumerRunning(db) })
	}
	close(stop)
	if n := <-sampled; n > 0 {
		t.Fatalf("history sat without a vacuumer in %d samples", n)
	}
	db.writer.Lock()
	left := historyLeft(db)
	db.writer.Unlock()
	if left {
		t.Fatal("the retired vacuumer left history behind")
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t"); got != 8 {
		t.Fatalf("COUNT(*) = %d after the rounds, want 8", got)
	}

	// A DROP TABLE that takes the last history with it retires the
	// vacuumer too, though no commit and no snapshot release followed.
	cur, err := db.QueryCursor("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	mustExec(t, db, "UPDATE t SET v = -1 WHERE id = 0")
	time.Sleep(5 * time.Millisecond) // passes run and keep the pinned version
	mustExec(t, db, "DROP TABLE t")
	waitFor(t, "the vacuumer to retire after DROP TABLE", func() bool { return !vacuumerRunning(db) })
}

// The background goroutine reclaims version chains on its own: no
// explicit Vacuum call anywhere. It starts with the first commit that
// leaves history and exits once everything is reclaimed.
func TestBackgroundVacuumReclaims(t *testing.T) {
	db := NewDB()
	db.setVacuumInterval(2 * time.Millisecond)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?)", i, "v0")
	}
	if vacuumerRunning(db) {
		t.Fatal("insert-only commits started the vacuumer; they leave no history")
	}
	for r := 0; r < 5; r++ {
		for i := 0; i < 20; i++ {
			mustExec(t, db, "UPDATE t SET v = ? WHERE id = ?", fmt.Sprintf("rev%d", r), i)
		}
	}
	waitFor(t, "background vacuum to reclaim versions", func() bool {
		st := db.MVCCStats()
		return st.BackgroundVacuums > 0 && st.VersionsVacuumed > 0
	})
	// With the history reclaimed the goroutine exits, and an idle
	// database runs no further passes.
	waitFor(t, "the vacuumer to exit", func() bool { return !vacuumerRunning(db) })
	idle := db.MVCCStats().BackgroundVacuums
	time.Sleep(20 * time.Millisecond)
	if got := db.MVCCStats().BackgroundVacuums; got != idle {
		t.Fatalf("background vacuum ran %d passes on an idle database", got-idle)
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t"); got != 20 {
		t.Fatalf("COUNT(*) = %d after background vacuum, want 20", got)
	}
}

// A database that committed an UPDATE owns a vacuum goroutine only until
// the history is reclaimed; then nothing outside the caller references it,
// and dropping the last reference lets the collector free it. (The
// finalizer sits on a table: the DB itself is in a cycle with its
// statement cache, and a finalizer on a cycle member need not run.)
func TestUnreferencedDBIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		db := NewDB()
		db.setVacuumInterval(time.Millisecond)
		mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "INSERT INTO t VALUES (1, 'a')")
		mustExec(t, db, "UPDATE t SET v = 'b' WHERE id = 1")
		waitFor(t, "the vacuumer to reclaim and exit", func() bool { return !vacuumerRunning(db) })
		runtime.SetFinalizer(db.table("t"), func(*Table) { close(collected) })
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an unreferenced database that committed an UPDATE was never collected")
}

// Every failure shape a read can take must return the snapshot tracker to
// zero, and vacuum must then reclaim at full horizon. Covers the acquire
// sites audited in cursor.go and stmt.go.
func TestSnapshotReleasedOnErrorPaths(t *testing.T) {
	db := mvccDB(t)

	// QueryEach aborted mid-stream by the callback.
	sentinel := errors.New("stop")
	n := 0
	err := db.QueryEach("SELECT id FROM t", func(row []Value) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("QueryEach abort returned %v", err)
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("QueryEach abort leaked a snapshot: %+v", st)
	}

	// Statement that fails after the snapshot would be taken (unknown
	// column is caught during cursor construction).
	if _, err := db.QueryCursor("SELECT nope FROM t"); err == nil {
		t.Fatal("QueryCursor on unknown column succeeded")
	}
	if _, err := db.Query("SELECT nope FROM t"); err == nil {
		t.Fatal("Query on unknown column succeeded")
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("failed statements leaked a snapshot: %+v", st)
	}

	// Cursor invalidated by DDL mid-stream, then abandoned via Close.
	cur, err := db.QueryCursor("SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE INDEX idx_tmp ON t (v)")
	if _, err := cur.Next(); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("Next after DDL = %v, want ErrCursorInvalidated", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
		t.Fatalf("invalidated cursor leaked a snapshot: %+v", st)
	}

	// With the tracker empty, vacuum reclaims at the full horizon.
	for i := 0; i < 3; i++ {
		mustExec(t, db, "UPDATE t SET v = ? WHERE id = 5", fmt.Sprintf("r%d", i))
	}
	if got := db.Vacuum(); got == 0 {
		t.Fatal("vacuum reclaimed nothing with no active snapshots")
	}
}

// setVacuumInterval tunes the background vacuum tick period (restarting
// the goroutine when it is running). Non-positive restores the default.
// Tests use it to make background passes fast or to keep them away.
func (db *DB) setVacuumInterval(d time.Duration) {
	db.writer.Lock()
	db.vacInterval = d
	db.writer.Unlock()
	if db.stopVacuumer() {
		db.writer.Lock()
		db.startVacuumer()
		db.writer.Unlock()
	}
}
