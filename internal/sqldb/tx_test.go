package sqldb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTxCommit(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(2) {
		t.Fatalf("count after commit = %v", rs.Rows[0][0])
	}
}

func TestTxRollbackInsert(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'keep')")
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (2, 'discard')"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(1) {
		t.Fatalf("count after rollback = %v, want 1", rs.Rows[0][0])
	}
	// The primary-key index must have forgotten id=2.
	mustExec(t, db, "INSERT INTO t VALUES (2, 'again')")
}

func TestTxRollbackUpdateDelete(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, db, "CREATE INDEX idx_v ON t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")

	tx := db.Begin()
	if _, err := tx.Exec("UPDATE t SET v = 'ONE' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM t WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	rs := mustQuery(t, db, "SELECT v FROM t ORDER BY id")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows after rollback = %d, want 3", len(rs.Rows))
	}
	if rs.Rows[0][0] != "one" || rs.Rows[1][0] != "two" {
		t.Fatalf("values after rollback = %v", rs.Rows)
	}
	// Secondary index consistency after rollback.
	rs = mustQuery(t, db, "SELECT id FROM t WHERE v = 'one'")
	if len(rs.Rows) != 1 || rs.Rows[0][0] != int64(1) {
		t.Fatalf("index lookup after rollback = %v", rs.Rows)
	}
	rs = mustQuery(t, db, "SELECT id FROM t WHERE v = 'ONE'")
	if len(rs.Rows) != 0 {
		t.Fatalf("stale index entry after rollback: %v", rs.Rows)
	}
}

func TestTxRollbackDDL(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE keepme (id INTEGER)")
	tx := db.Begin()
	if _, err := tx.Exec("CREATE TABLE temp (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DROP TABLE keepme"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO temp VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM temp"); err == nil {
		t.Fatal("temp table should not survive rollback")
	}
	if _, err := db.Query("SELECT * FROM keepme"); err != nil {
		t.Fatalf("keepme should be restored: %v", err)
	}
}

func TestTxDoubleFinish(t *testing.T) {
	db := NewDB()
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit should fail")
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("rollback after commit should fail")
	}
	if _, err := tx.Exec("CREATE TABLE t (x INTEGER)"); err == nil {
		t.Fatal("exec after commit should fail")
	}

	// A published transaction takes no more statements and cannot roll
	// back; its rows are visible, and Commit finishes it.
	mustExec(t, db, "CREATE TABLE t (x INTEGER)")
	tx = db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err == nil {
		t.Fatal("double publish should fail")
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("exec after publish should fail")
	}
	if _, err := tx.Query("SELECT * FROM t"); err == nil {
		t.Fatal("query after publish should fail")
	}
	if err := tx.Rollback(); err == nil {
		t.Fatal("rollback after publish should fail")
	}
	if got := countRows(t, db.Query, "SELECT COUNT(*) FROM t"); got != 1 {
		t.Fatalf("count after publish = %d, want 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)") // the writer is free again
}

// An auto-commit write started after Begin waits for the whole
// transaction, its reads and writes included, and then runs on what the
// transaction committed.
func TestTxSerializesWriters(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (n INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	tx := db.Begin()
	done := make(chan Result, 1)
	go func() {
		res, err := db.Exec("UPDATE t SET n = n + 10 WHERE n = 2")
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	blocked := func(when string) {
		t.Helper()
		select {
		case <-done:
			t.Fatalf("auto-commit Exec ran beside the open transaction, %s", when)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if got := countRows(t, tx.Query, "SELECT COUNT(*) FROM t"); got != 1 {
		t.Fatalf("transaction counts %d rows, want 1", got)
	}
	blocked("after its read")
	if _, err := tx.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	blocked("after its write")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if res := <-done; res.RowsAffected != 1 {
		t.Fatalf("the waiting UPDATE changed %d rows, want the transaction's row", res.RowsAffected)
	}
	rs := mustQuery(t, db, "SELECT n FROM t ORDER BY n")
	if got := fmt.Sprint(rs.Rows); got != "[[1] [12]]" {
		t.Fatalf("rows = %s, want [[1] [12]]", got)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, n INTEGER)")
	var wg sync.WaitGroup
	const writers, readers, perWriter = 4, 4, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", w*1000+i); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Query("SELECT COUNT(*) FROM t"); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(writers*perWriter) {
		t.Fatalf("final count = %v, want %d", rs.Rows[0][0], writers*perWriter)
	}
}
