package sqldb

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// planTestDB builds a table with hash and B-tree indexes plus data with
// NULLs and duplicate keys.
func planTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, w REAL, s TEXT)")
	mustExec(t, db, "CREATE INDEX idx_pk2 ON p (k)")
	mustExec(t, db, "CREATE INDEX idx_pw ON p (w) USING BTREE")
	for i := 0; i < 200; i++ {
		var w any
		if i%7 != 0 {
			w = float64(i % 50)
		}
		mustExec(t, db, "INSERT INTO p VALUES (?, ?, ?, ?)", i, i%10, w, fmt.Sprintf("s%03d", i))
	}
	return db
}

func TestRangePredicateUsesBTreeIndex(t *testing.T) {
	db := planTestDB(t)
	before := db.PlanStats()
	rs := mustQuery(t, db, "SELECT id FROM p WHERE w >= 10 AND w < 12 ORDER BY id")
	after := db.PlanStats()
	if after.IndexRangeScans != before.IndexRangeScans+1 {
		t.Fatalf("range scan not used: %+v -> %+v", before, after)
	}

	// Same rows as the forced full scan.
	db.setIndexAccess(false)
	want := mustQuery(t, db, "SELECT id FROM p WHERE w >= 10 AND w < 12 ORDER BY id")
	db.setIndexAccess(true)
	if fmt.Sprint(rs.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("range rows mismatch:\n got %v\nwant %v", rs.Rows, want.Rows)
	}
	if rs.Len() == 0 {
		t.Fatal("range query returned no rows")
	}
}

func TestBetweenUsesBTreeIndex(t *testing.T) {
	db := planTestDB(t)
	before := db.PlanStats()
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM p WHERE w BETWEEN 5 AND 9")
	after := db.PlanStats()
	if after.IndexRangeScans != before.IndexRangeScans+1 {
		t.Fatalf("BETWEEN did not use range scan")
	}
	db.setIndexAccess(false)
	want := mustQuery(t, db, "SELECT COUNT(*) FROM p WHERE w BETWEEN 5 AND 9")
	if rs.Rows[0][0] != want.Rows[0][0] {
		t.Fatalf("count = %v, want %v", rs.Rows[0][0], want.Rows[0][0])
	}
}

func TestOrderByLimitFromIndex(t *testing.T) {
	db := planTestDB(t)
	for _, q := range []string{
		"SELECT id, w FROM p ORDER BY w LIMIT 5",
		"SELECT id, w FROM p ORDER BY w DESC LIMIT 5",
		"SELECT id, w FROM p ORDER BY w",
		"SELECT id, w FROM p ORDER BY w DESC",
		"SELECT id, w FROM p WHERE w > 40 ORDER BY w LIMIT 3",
		"SELECT id, w FROM p WHERE w > 40 ORDER BY w DESC LIMIT 7 OFFSET 2",
	} {
		before := db.PlanStats()
		got := mustQuery(t, db, q)
		after := db.PlanStats()
		if after.OrderedScans != before.OrderedScans+1 {
			t.Fatalf("%s: ordered scan not used", q)
		}
		db.setIndexAccess(false)
		want := mustQuery(t, db, q)
		db.setIndexAccess(true)
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s:\n got %v\nwant %v", q, got.Rows, want.Rows)
		}
	}
}

func TestOrderedScanServesNULLs(t *testing.T) {
	db := planTestDB(t)
	asc := mustQuery(t, db, "SELECT w FROM p ORDER BY w")
	if asc.Rows[0][0] != nil {
		t.Fatalf("ascending order must put NULLs first, got %v", asc.Rows[0][0])
	}
	desc := mustQuery(t, db, "SELECT w FROM p ORDER BY w DESC")
	if desc.Rows[len(desc.Rows)-1][0] != nil {
		t.Fatalf("descending order must put NULLs last")
	}
	if asc.Len() != 200 || desc.Len() != 200 {
		t.Fatalf("ordered scans dropped rows: %d/%d", asc.Len(), desc.Len())
	}
}

func TestInListLargeDedup(t *testing.T) {
	db := planTestDB(t)
	// Large IN list with many duplicate items; index union must stay
	// duplicate-free and match the scan result.
	var items []string
	for i := 0; i < 300; i++ {
		items = append(items, fmt.Sprint(i%5))
	}
	q := "SELECT id FROM p WHERE k IN (" + strings.Join(items, ", ") + ") ORDER BY id"
	before := db.PlanStats()
	got := mustQuery(t, db, q)
	after := db.PlanStats()
	if after.IndexInScans != before.IndexInScans+1 {
		t.Fatal("IN list did not use index union")
	}
	db.setIndexAccess(false)
	want := mustQuery(t, db, q)
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("IN mismatch: got %d rows, want %d", got.Len(), want.Len())
	}
}

func TestUpdateDeleteUseRangeIndex(t *testing.T) {
	db := planTestDB(t)
	before := db.PlanStats()
	res, err := db.Exec("UPDATE p SET s = ? WHERE w > 45", "hot")
	if err != nil {
		t.Fatal(err)
	}
	after := db.PlanStats()
	if after.IndexRangeScans != before.IndexRangeScans+1 {
		t.Fatal("UPDATE did not use range index access")
	}
	want := mustQuery(t, db, "SELECT COUNT(*) FROM p WHERE s = 'hot'")
	if want.Rows[0][0] != res.RowsAffected {
		t.Fatalf("updated %d rows, found %v", res.RowsAffected, want.Rows[0][0])
	}

	before = db.PlanStats()
	res, err = db.Exec("DELETE FROM p WHERE k IN (3, 4, 3)")
	if err != nil {
		t.Fatal(err)
	}
	after = db.PlanStats()
	if after.IndexInScans != before.IndexInScans+1 {
		t.Fatal("DELETE did not use IN index access")
	}
	if res.RowsAffected != 40 {
		t.Fatalf("deleted %d rows, want 40", res.RowsAffected)
	}
}

func TestIndexNestedLoopJoin(t *testing.T) {
	db := planTestDB(t)
	mustExec(t, db, "CREATE TABLE dim (k INTEGER, label TEXT)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO dim VALUES (?, ?)", i, fmt.Sprintf("d%d", i))
	}
	mustExec(t, db, "CREATE INDEX idx_dim_k ON dim (k)")

	before := db.PlanStats()
	got := mustQuery(t, db, "SELECT p.id, dim.label FROM p JOIN dim ON p.k = dim.k ORDER BY p.id")
	after := db.PlanStats()
	if after.IndexJoins != before.IndexJoins+1 {
		t.Fatal("join did not use index nested loop")
	}
	db.setIndexAccess(false)
	want := mustQuery(t, db, "SELECT p.id, dim.label FROM p JOIN dim ON p.k = dim.k ORDER BY p.id")
	db.setIndexAccess(true)
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("index join mismatch: %d vs %d rows", got.Len(), want.Len())
	}
	if got.Len() != 200 {
		t.Fatalf("join rows = %d, want 200", got.Len())
	}
}

func TestStmtCacheCountersAndEviction(t *testing.T) {
	db := planTestDB(t)
	base := db.StmtCacheStats()
	q := "SELECT COUNT(*) FROM p WHERE k = ?"
	for i := 0; i < 5; i++ {
		mustQuery(t, db, q, i)
	}
	st := db.StmtCacheStats()
	if st.Hits < base.Hits+4 {
		t.Fatalf("expected >=4 cache hits, got %+v (base %+v)", st, base)
	}

	db.setStmtCacheCapacity(2)
	for i := 0; i < 10; i++ {
		mustQuery(t, db, fmt.Sprintf("SELECT COUNT(*) FROM p WHERE k = %d", i))
	}
	st = db.StmtCacheStats()
	if st.Entries > 2 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}

	// Capacity zero: every call misses but still works.
	db.setStmtCacheCapacity(0)
	pre := db.StmtCacheStats()
	mustQuery(t, db, q, 1)
	mustQuery(t, db, q, 1)
	st = db.StmtCacheStats()
	if st.Hits != pre.Hits || st.Misses != pre.Misses+2 {
		t.Fatalf("disabled cache should always miss: %+v -> %+v", pre, st)
	}
}

func TestPreparedStmtSurvivesDDL(t *testing.T) {
	db := planTestDB(t)
	stmt, err := db.Prepare("SELECT id FROM p WHERE w > 45 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	first, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}

	// Dropping the index invalidates the plan; results must not change.
	mustExec(t, db, "DROP INDEX idx_pw ON p")
	second, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first.Rows) != fmt.Sprint(second.Rows) {
		t.Fatalf("rows changed after DDL:\n%v\n%v", first.Rows, second.Rows)
	}

	// Dropping the table makes the statement invalid at its next use.
	mustExec(t, db, "DROP TABLE p")
	if _, err := stmt.Query(); err == nil {
		t.Fatal("expected error after DROP TABLE")
	}
}

func TestPreparedStmtExec(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE logbook (id INTEGER PRIMARY KEY AUTOINCREMENT, msg TEXT)")
	ins, err := db.Prepare("INSERT INTO logbook (msg) VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ins.Exec(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rs := mustQuery(t, db, "SELECT COUNT(*) FROM logbook")
	if rs.Rows[0][0] != int64(10) {
		t.Fatalf("count = %v", rs.Rows[0][0])
	}
	if _, err := ins.Query(); err == nil {
		t.Fatal("Query on INSERT statement must fail")
	}
}

func TestTxSharesStatementCache(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE c (v INTEGER)")
	const sql = "INSERT INTO c VALUES (?)"
	if _, err := db.Exec(sql, 1); err != nil {
		t.Fatal(err)
	}
	before := db.StmtCacheStats()
	tx := db.Begin()
	if _, err := tx.Exec(sql, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := db.StmtCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("Tx.Exec should hit the shared cache: %+v -> %+v", before, after)
	}
}

func TestScanAfterDeleteAndRollback(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE s (v INTEGER)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO s VALUES (?)", i)
	}
	// A mass delete leaves tombstones in the row slots until vacuum.
	if _, err := db.Exec("DELETE FROM s WHERE v < 400"); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, db, "SELECT v FROM s ORDER BY v")
	if rs.Len() != 100 || rs.Rows[0][0] != int64(400) {
		t.Fatalf("post-delete scan wrong: %d rows, first %v", rs.Len(), rs.Rows[0][0])
	}

	// Rolled-back deletes must reappear in scans (restore path).
	tx := db.Begin()
	if _, err := tx.Exec("DELETE FROM s WHERE v >= 450"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs = mustQuery(t, db, "SELECT COUNT(*) FROM s")
	if rs.Rows[0][0] != int64(100) {
		t.Fatalf("rollback lost rows: %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, db, "SELECT v FROM s ORDER BY v DESC LIMIT 1")
	if rs.Rows[0][0] != int64(499) {
		t.Fatalf("restored row missing: %v", rs.Rows[0][0])
	}
}

func TestExecTxnControlWhileTxOpen(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE w (v INTEGER)")
	tx := db.Begin()
	defer tx.Rollback()
	// Must error immediately, not block behind the open transaction's
	// writer lock.
	done := make(chan error, 3)
	go func() {
		_, err := db.Exec("COMMIT")
		done <- err
	}()
	go func() {
		_, err := db.Exec("SELECT v FROM w")
		done <- err
	}()
	go func() {
		// Comment-prefixed transaction control must be classified too.
		_, err := db.Exec("-- refresh\nCOMMIT")
		done <- err
	}()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("expected rejection error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Exec blocked behind open transaction instead of erroring")
		}
	}
}

func TestMissingArgumentErrors(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE m (v INTEGER)")
	// No index, empty table: the WHERE clause is never evaluated, but the
	// missing binding must still error deterministically.
	if _, err := db.Query("SELECT v FROM m WHERE v = ?"); err == nil {
		t.Fatal("expected 'not enough arguments' error")
	}
	if _, err := db.Exec("INSERT INTO m VALUES (?)"); err == nil {
		t.Fatal("expected 'not enough arguments' error on INSERT")
	}
}

func TestLimitRejectsColumnRef(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE l (id INTEGER, k INTEGER)")
	mustExec(t, db, "INSERT INTO l VALUES (1, 2), (2, 3)")
	for _, q := range []string{
		"SELECT id FROM l LIMIT k",
		"SELECT id FROM l LIMIT 1 OFFSET k",
	} {
		if _, err := db.Query(q); err == nil {
			t.Fatalf("%s: expected plan-time rejection", q)
		}
	}
}

func TestHugeLimitWithOffset(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE h (v INTEGER)")
	for i := 0; i < 5; i++ {
		mustExec(t, db, "INSERT INTO h VALUES (?)", i)
	}
	// The "no limit, just offset" idiom: LIMIT max-int must not overflow
	// the early-exit target.
	rs := mustQuery(t, db, fmt.Sprintf("SELECT v FROM h LIMIT %d OFFSET 1", int64(1)<<62))
	if rs.Len() != 4 {
		t.Fatalf("rows = %d, want 4", rs.Len())
	}
}

func TestInListBeyondFloatPrecision(t *testing.T) {
	// 2^53 and 2^53+1 collapse onto the same float64 (and hashKey) but are
	// Compare-distinct; IN-list index access must keep both.
	const big = int64(1) << 53
	for _, kind := range []string{"", " USING BTREE"} {
		db := NewDB()
		mustExec(t, db, "CREATE TABLE b (v INTEGER)")
		mustExec(t, db, "CREATE INDEX idx_bv ON b (v)"+kind)
		mustExec(t, db, "INSERT INTO b VALUES (?), (?)", big, big+1)
		rs := mustQuery(t, db, fmt.Sprintf("SELECT v FROM b WHERE v IN (%d, %d) ORDER BY v", big, big+1))
		if rs.Len() != 2 {
			t.Fatalf("index kind %q: rows = %d, want 2", kind, rs.Len())
		}
	}
}

// TestConcurrentPreparedQueries hammers one shared prepared statement from
// many goroutines while DDL churn forces replans, verifying (under -race)
// that plans are immutable during execution and re-preparation is safe.
func TestConcurrentPreparedQueries(t *testing.T) {
	db := planTestDB(t)
	stmt, err := db.Prepare("SELECT id, w FROM p WHERE w > ? ORDER BY w LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 9)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				if _, err := stmt.Query(float64(i % 50)); err != nil {
					done <- err
					return
				}
				if _, err := db.Query("SELECT COUNT(*) FROM p WHERE k = ?", i%10); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	go func() {
		for i := 0; i < 20; i++ {
			if _, err := db.Exec("CREATE INDEX idx_churn ON p (s) USING BTREE"); err != nil {
				done <- err
				return
			}
			if _, err := db.Exec("DROP INDEX idx_churn ON p"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 9; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEarlyLimitExit(t *testing.T) {
	db := planTestDB(t)
	before := db.PlanStats()
	rs := mustQuery(t, db, "SELECT id FROM p LIMIT 3")
	after := db.PlanStats()
	if rs.Len() != 3 {
		t.Fatalf("limit rows = %d", rs.Len())
	}
	if after.EarlyLimitHits != before.EarlyLimitHits+1 {
		t.Fatal("LIMIT did not stop the scan early")
	}
	// LIMIT 0 yields nothing.
	rs = mustQuery(t, db, "SELECT id FROM p LIMIT 0")
	if rs.Len() != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", rs.Len())
	}
}

// setStmtCacheCapacity resizes the statement cache. Zero disables caching
// (every call parses anew); tests and benchmarks use it to measure the
// parse-per-call baseline and eviction.
func (db *DB) setStmtCacheCapacity(n int) {
	c := db.stmts
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.SetCapacity(n)
}

// setIndexAccess enables or disables index use by the planner. Disabling
// forces full scans and hash/nested-loop joins — the execution model of the
// seed engine — which the oracle tests and benchmarks compare against.
// Toggling bumps the schema generation so cached plans are rebuilt.
func (db *DB) setIndexAccess(enabled bool) {
	db.writer.Lock()
	defer db.writer.Unlock()
	db.noIndex.Store(!enabled)
	db.bumpSchemaGen()
}
