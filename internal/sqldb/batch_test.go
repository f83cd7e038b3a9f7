package sqldb

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// newBatchTestDB builds a partitioned database with the vectorized leg
// forced on (tiny batch threshold) and a populated table `p` of n rows,
// sharing the fixture shape with the parallel operator tests.
func newBatchTestDB(t *testing.T, n, parts int) *DB {
	t.Helper()
	db := NewDB()
	db.SetPartitions(parts)
	db.SetParallelism(parts)
	db.SetParallelMinRows(1)
	db.SetBatchMinRows(1)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, f REAL, s TEXT)")
	fillParallelTable(t, db, n)
	return db
}

// rowEngineResult evaluates query with the vectorized leg disabled and
// parallelism forced to 1 — the reference row-at-a-time serial plan.
func rowEngineResult(t *testing.T, db *DB, query string) string {
	t.Helper()
	db.SetBatchExecution(false)
	defer db.SetBatchExecution(true)
	var out string
	withSerial(db, func() {
		out = formatResult(mustQuery(t, db, query))
	})
	return out
}

// batchKernelQueries exercises every filter kernel (comparisons both
// directions, BETWEEN, IN, LIKE, IS [NOT] NULL, AND/OR/NOT) plus
// projection orders, DISTINCT, ORDER BY and LIMIT/OFFSET above the scan.
var batchKernelQueries = []string{
	"SELECT * FROM p",
	"SELECT id, val FROM p WHERE val >= 500",
	"SELECT id FROM p WHERE 500 > val",
	"SELECT id FROM p WHERE grp = 3",
	"SELECT id FROM p WHERE grp <> 2",
	"SELECT f, s, id FROM p WHERE f BETWEEN 1.5 AND 4.5",
	"SELECT id FROM p WHERE val IN (1, 2, 3, 500)",
	"SELECT id, s FROM p WHERE s LIKE 'a%'",
	"SELECT id FROM p WHERE s LIKE '%et%'",
	"SELECT id FROM p WHERE grp IS NULL",
	"SELECT id FROM p WHERE grp IS NOT NULL AND val < 300",
	"SELECT id FROM p WHERE NOT (val < 500 OR grp = 1)",
	"SELECT id, s FROM p WHERE s = 'beta' OR f IS NULL",
	"SELECT DISTINCT s FROM p",
	"SELECT id FROM p LIMIT 37 OFFSET 5",
	"SELECT id, val FROM p WHERE val > 100 ORDER BY val LIMIT 20",
	"SELECT COUNT(*) FROM p",
	"SELECT COUNT(*), COUNT(f), SUM(val), SUM(f), MIN(val), MAX(f), AVG(f), AVG(val) FROM p",
	"SELECT grp, COUNT(*), COUNT(f), SUM(val), MIN(val), MAX(f), AVG(f) FROM p GROUP BY grp ORDER BY grp",
	"SELECT grp, SUM(f), AVG(val), MIN(s), MAX(s) FROM p WHERE val > 200 GROUP BY grp ORDER BY grp",
}

// TestBatchExecutionMatchesRowEngine runs the kernel coverage queries on
// the vectorized leg — serial producer and partition exchange — and
// requires byte-identical output against the serial row engine.
func TestBatchExecutionMatchesRowEngine(t *testing.T) {
	db := newBatchTestDB(t, 3000, 4)
	for _, q := range batchKernelQueries {
		want := rowEngineResult(t, db, q)
		var serial string
		withSerial(db, func() {
			serial = formatResult(mustQuery(t, db, q))
		})
		if serial != want {
			t.Fatalf("query %q: serial batch leg diverged\n got:\n%s\nwant:\n%s", q, serial, want)
		}
		if got := formatResult(mustQuery(t, db, q)); got != want {
			t.Fatalf("query %q: batch exchange diverged\n got:\n%s\nwant:\n%s", q, got, want)
		}
	}
	st := db.BatchStats()
	if st.BatchScans == 0 || st.BatchAggregates == 0 {
		t.Fatalf("vectorized paths never ran: %+v", st)
	}
}

// TestBatchBoundarySizes sweeps the batch row capacity across the edge
// cases — one row per batch, exact global multiple (3000 = 125 batches of
// 24), exact per-partition multiple, one off either side — and checks the
// vectorized output never depends on where the batch boundaries fall.
func TestBatchBoundarySizes(t *testing.T) {
	db := newBatchTestDB(t, 3000, 4)
	queries := []string{
		"SELECT id, val FROM p WHERE val >= 500",
		"SELECT grp, COUNT(*), SUM(f) FROM p GROUP BY grp ORDER BY grp",
	}
	for _, q := range queries {
		want := rowEngineResult(t, db, q)
		for _, size := range []int{1, 2, 24, 750, 1000, 1024, 3000, 3001} {
			db.setBatchRows(size)
			var serial string
			withSerial(db, func() {
				serial = formatResult(mustQuery(t, db, q))
			})
			if serial != want {
				t.Fatalf("query %q batch size %d: serial leg diverged", q, size)
			}
			if got := formatResult(mustQuery(t, db, q)); got != want {
				t.Fatalf("query %q batch size %d: exchange diverged", q, size)
			}
		}
		db.setBatchRows(0) // restore default
	}
}

// TestBatchLimitMidBatch stops consumption inside a produced batch: the
// limit must hold exactly and the exchange workers must be reaped even
// though their remaining batches are never pulled.
func TestBatchLimitMidBatch(t *testing.T) {
	db := newBatchTestDB(t, 6000, 4)
	db.setBatchRows(64)
	base := runtime.NumGoroutine()
	for _, limit := range []int{10, 63, 64, 65, 200} {
		q := fmt.Sprintf("SELECT id FROM p LIMIT %d", limit)
		want := rowEngineResult(t, db, q)
		got := formatResult(mustQuery(t, db, q))
		if got != want {
			t.Fatalf("LIMIT %d: batch leg diverged\n got:\n%s\nwant:\n%s", limit, got, want)
		}
		waitGoroutines(t, base, fmt.Sprintf("LIMIT %d", limit))
	}
}

// TestBatchCursorEarlyClose closes a streaming vectorized cursor
// mid-batch; the exchange workers must exit and the cursor must refuse
// further reads.
func TestBatchCursorEarlyClose(t *testing.T) {
	db := newBatchTestDB(t, 6000, 4)
	base := runtime.NumGoroutine()
	cur, err := db.QueryCursor("SELECT id, val FROM p")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		row, err := cur.Next()
		if err != nil || row == nil {
			t.Fatalf("row %d: %v %v", i, row, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err == nil {
		t.Fatal("Next after Close succeeded")
	}
	waitGoroutines(t, base, "batch early close")
	if db.BatchStats().BatchScans == 0 {
		t.Fatal("cursor did not take the vectorized leg")
	}
}

// TestBatchCursorInvalidatedByDDL bumps the schema generation while
// vectorized cursors stream on both the serial producer and the
// exchange; the next pull must fail with ErrCursorInvalidated.
func TestBatchCursorInvalidatedByDDL(t *testing.T) {
	db := newBatchTestDB(t, 6000, 4)
	base := runtime.NumGoroutine()

	cur, err := db.QueryCursor("SELECT id FROM p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE INDEX idx_p_s ON p (s)")
	if _, err := cur.Next(); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("exchange Next after DDL: %v, want ErrCursorInvalidated", err)
	}
	cur.Close()
	waitGoroutines(t, base, "batch DDL invalidation")

	var serialErr error
	withSerial(db, func() {
		cur, err := db.QueryCursor("SELECT id FROM p")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "DROP INDEX idx_p_s")
		_, serialErr = cur.Next()
	})
	if !errors.Is(serialErr, ErrCursorInvalidated) {
		t.Fatalf("serial Next after DDL: %v, want ErrCursorInvalidated", serialErr)
	}
}

// TestBatchErrorParity forces type errors on both engines — in an
// aggregate, and in a filter kernel behind a comparison kernel that has
// already narrowed the selection. The vectorized leg must refuse the same
// way the row engine does.
func TestBatchErrorParity(t *testing.T) {
	db := newBatchTestDB(t, 200, 4)
	for _, q := range []string{
		"SELECT SUM(s) FROM p WHERE s = 'beta' GROUP BY grp",
		"SELECT id FROM p WHERE val > 3 AND val LIKE 'x%'",
	} {
		db.SetBatchExecution(false)
		_, rowErr := db.Query(q)
		db.SetBatchExecution(true)
		_, batchErr := db.Query(q)
		if rowErr == nil || batchErr == nil {
			t.Fatalf("%s: must fail on both legs: row=%v batch=%v", q, rowErr, batchErr)
		}
		if rowErr.Error() != batchErr.Error() {
			t.Fatalf("%s: error mismatch:\n row:   %v\n batch: %v", q, rowErr, batchErr)
		}
	}
}

// TestBatchKnobsAndStats pins the observability contract: the knobs are
// reflected in BatchStats, the counters move only when the vectorized
// leg actually runs, and the cardinality threshold gates dispatch.
func TestBatchKnobsAndStats(t *testing.T) {
	db := newBatchTestDB(t, 500, 4)
	db.SetBatchMinRows(100)
	db.setBatchRows(64)
	st := db.BatchStats()
	if !st.Enabled || st.MinRows != 100 || st.RowsPerBatch != 64 {
		t.Fatalf("knobs not reflected: %+v", st)
	}
	mustQuery(t, db, "SELECT id FROM p WHERE val >= 0")
	mustQuery(t, db, "SELECT grp, COUNT(*) FROM p GROUP BY grp")
	st = db.BatchStats()
	if st.BatchScans == 0 || st.BatchAggregates == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}

	// Below the row threshold the planner must fall back to the row leg.
	db.SetBatchMinRows(10_000)
	before := db.BatchStats()
	mustQuery(t, db, "SELECT id FROM p")
	if after := db.BatchStats(); after.BatchScans != before.BatchScans {
		t.Fatalf("threshold ignored: %+v -> %+v", before, after)
	}

	// Disabled entirely: counters frozen, flag visible.
	db.SetBatchExecution(false)
	before = db.BatchStats()
	mustQuery(t, db, "SELECT id FROM p WHERE val >= 0")
	after := db.BatchStats()
	if after.Enabled || after.BatchScans != before.BatchScans {
		t.Fatalf("disable ignored: %+v", after)
	}
}

// TestCreateIndexParallelMatchesSerial builds the same B-tree index
// serially and from concurrent per-partition sorted runs; indexed range
// and ordered traversals must be byte-identical, NULL handling included.
func TestCreateIndexParallelMatchesSerial(t *testing.T) {
	build := func(par int) *DB {
		db := NewDB()
		db.SetPartitions(4)
		db.SetParallelism(par)
		db.SetParallelMinRows(1)
		mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, f REAL, s TEXT)")
		fillParallelTable(t, db, 3000)
		mustExec(t, db, "CREATE INDEX idx_val ON p (val) USING BTREE")
		mustExec(t, db, "CREATE INDEX idx_f ON p (f) USING BTREE")
		return db
	}
	serial, parallel := build(1), build(4)
	queries := []string{
		"SELECT id, val FROM p WHERE val BETWEEN 100 AND 400 ORDER BY val",
		"SELECT id, val FROM p WHERE val >= 700 ORDER BY val LIMIT 50",
		"SELECT id, f FROM p WHERE f >= 2.5 ORDER BY f",
		"SELECT id FROM p WHERE f IS NULL",
		"SELECT id, val FROM p ORDER BY val DESC LIMIT 100",
	}
	for _, q := range queries {
		a := formatResult(mustQuery(t, serial, q))
		b := formatResult(mustQuery(t, parallel, q))
		if a != b {
			t.Fatalf("query %q:\nserial-built index:\n%s\nparallel-built index:\n%s", q, a, b)
		}
	}
}

// TestCreateIndexParallelUniqueViolation checks error parity: the
// parallel build must report the same duplicate the serial build hits
// first — the key whose second occurrence has the globally smallest row
// ID — and must leave no partial index behind.
func TestCreateIndexParallelUniqueViolation(t *testing.T) {
	build := func(par int) (*DB, error) {
		db := NewDB()
		db.SetPartitions(4)
		db.SetParallelism(par)
		db.SetParallelMinRows(1)
		mustExec(t, db, "CREATE TABLE u (id INTEGER PRIMARY KEY, k TEXT)")
		for _, r := range []struct {
			id int64
			k  any
		}{
			{0, "x"}, {10, "a"}, {50, "a"}, {200, "x"}, {201, nil}, {202, nil},
		} {
			mustExec(t, db, "INSERT INTO u VALUES (?, ?)", r.id, r.k)
		}
		_, err := db.Exec("CREATE UNIQUE INDEX uk ON u (k) USING BTREE")
		return db, err
	}
	serialDB, serr := build(1)
	parDB, perr := build(4)
	var se, pe *UniqueError
	if !errors.As(serr, &se) {
		t.Fatalf("serial build: %v, want UniqueError", serr)
	}
	if !errors.As(perr, &pe) {
		t.Fatalf("parallel build: %v, want UniqueError", perr)
	}
	// "a" duplicates at row 50, before "x" duplicates at row 200; the two
	// NULLs never violate uniqueness.
	if se.Table != pe.Table || se.Column != pe.Column || Compare(se.Value, pe.Value) != 0 {
		t.Fatalf("violation mismatch: serial=%+v parallel=%+v", se, pe)
	}
	if pe.Value != "a" {
		t.Fatalf("duplicate key = %v, want the globally first second-occurrence %q", pe.Value, "a")
	}
	// A failed build must not register the index: the name stays free.
	for _, db := range []*DB{serialDB, parDB} {
		mustExec(t, db, "CREATE INDEX uk ON u (k) USING BTREE")
	}
}
