package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newBatchTestDB builds a database sharded into parts partitions with the
// vectorized leg forced on (tiny batch threshold) and a populated table `p`
// of n rows. With parts > 1 batch scans and aggregates run on the
// partition exchange; with parts == 1 on the serial batch producer.
//
// Columns: id (pk), grp (0..6 or NULL), val (int), f (float or NULL), s
// (text). Float sums need no dyadic fixtures: the accumulators use
// Kahan-compensated partials, so fanned-out aggregates are byte-identical
// to serial ones for any values.
func newBatchTestDB(t *testing.T, n, parts int) *DB {
	t.Helper()
	db := NewDB()
	db.SetPartitions(parts)
	db.SetBatchMinRows(1)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, f REAL, s TEXT)")
	fillParallelTable(t, db, n)
	return db
}

func fillParallelTable(t *testing.T, db *DB, n int) {
	t.Helper()
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
}

// withSerial runs fn with db re-sharded to one partition — the batch leg
// then runs its serial producer instead of the exchange — and restores the
// partition count afterwards.
func withSerial(db *DB, fn func()) {
	prev := db.Partitions()
	db.SetPartitions(1)
	defer db.SetPartitions(prev)
	fn()
}

func formatResult(rs *ResultSet) string {
	var sb strings.Builder
	for _, row := range rs.Rows {
		for _, v := range row {
			sb.WriteString(FormatValue(v))
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// rowEngineResult evaluates query with the vectorized leg disabled — the
// reference row-at-a-time serial plan.
func rowEngineResult(t *testing.T, db *DB, query string) string {
	t.Helper()
	db.SetBatchExecution(false)
	defer db.SetBatchExecution(true)
	return formatResult(mustQuery(t, db, query))
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (exchange workers park asynchronously after close).
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: %d > baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mustExecErrOK ignores execution errors (concurrent-churn helper: the
// row may already be gone).
func mustExecErrOK(db *DB, sql string, args ...any) {
	_, _ = db.Exec(sql, args...)
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

// TestBatchCursorEarlyClose closes a streaming cursor on the serial batch
// producer (one partition) mid-batch; the cursor must refuse further
// reads. TestParallelCursorEarlyClose covers the exchange.
func TestBatchCursorEarlyClose(t *testing.T) {
	db := newBatchTestDB(t, 6000, 1)
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
	if db.BatchStats().BatchScans == 0 || db.ParallelStats().ParallelScans != 0 {
		t.Fatalf("cursor did not take the serial batch producer: %+v %+v", db.BatchStats(), db.ParallelStats())
	}
}

// TestBatchCursorInvalidatedByDDL bumps the schema generation while a
// cursor streams on the serial batch producer; the next pull must fail
// with ErrCursorInvalidated. TestParallelCursorInvalidatedByDDL covers
// the exchange.
func TestBatchCursorInvalidatedByDDL(t *testing.T) {
	db := newBatchTestDB(t, 6000, 1)
	cur, err := db.QueryCursor("SELECT id FROM p")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE INDEX idx_p_s ON p (s)")
	if _, err := cur.Next(); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("serial Next after DDL: %v, want ErrCursorInvalidated", err)
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

// ---------------------------------------------------------------------------
// Partition exchange: the batch leg over more than one partition.

// TestParallelScanMatchesSerial asserts byte-identical output — including
// row order, which the exchange's ID merge preserves — between a
// four-partition and a one-partition layout for streaming SELECT shapes,
// covered by the kernels or not.
func TestParallelScanMatchesSerial(t *testing.T) {
	db := newBatchTestDB(t, 5000, 4)
	queries := []string{
		"SELECT * FROM p",
		"SELECT id, val FROM p WHERE val > 500",
		"SELECT id FROM p WHERE grp = 3",
		"SELECT s, val + 1 FROM p WHERE f IS NOT NULL",
		"SELECT * FROM p LIMIT 37",
		"SELECT id FROM p LIMIT 100 OFFSET 53",
		"SELECT id FROM p WHERE s LIKE 'a%' OFFSET 10",
		"SELECT id FROM p WHERE val < 0", // empty result
	}
	for _, q := range queries {
		par := formatResult(mustQuery(t, db, q))
		var ser string
		withSerial(db, func() {
			ser = formatResult(mustQuery(t, db, q))
		})
		if par != ser {
			t.Fatalf("%s: exchange != serial\nexchange:\n%s\nserial:\n%s", q, par, ser)
		}
	}
	if db.ParallelStats().ParallelScans == 0 {
		t.Fatal("the exchange never ran")
	}
}

// TestParallelAggregateMatchesSerial covers fanned-out partial
// aggregation: grouped and global aggregates, HAVING, and first-seen group
// ordering must all match a one-partition run exactly.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	db := newBatchTestDB(t, 5000, 4)
	queries := []string{
		"SELECT grp, COUNT(*), SUM(val), MIN(f), MAX(s) FROM p GROUP BY grp",
		"SELECT grp, AVG(val) FROM p GROUP BY grp ORDER BY grp",
		"SELECT grp, SUM(f) FROM p WHERE val > 200 GROUP BY grp",
		"SELECT grp, COUNT(*) FROM p GROUP BY grp HAVING COUNT(*) > 400",
		"SELECT COUNT(*), SUM(val), AVG(f), MIN(val), MAX(f) FROM p",
		"SELECT COUNT(*) FROM p WHERE val < 0", // zero-row global aggregate
		"SELECT grp, s, COUNT(*) FROM p GROUP BY grp, s",
	}
	for _, q := range queries {
		before := db.ParallelStats().ParallelAggregates
		par := formatResult(mustQuery(t, db, q))
		if got := db.ParallelStats().ParallelAggregates; got == before {
			t.Fatalf("%s: aggregation did not fan out", q)
		}
		var ser string
		withSerial(db, func() {
			ser = formatResult(mustQuery(t, db, q))
		})
		if par != ser {
			t.Fatalf("%s: exchange != serial\nexchange:\n%s\nserial:\n%s", q, par, ser)
		}
	}
}

// TestParallelWriteMatchesSerial runs the same UPDATE/DELETE workload on
// a four-partition and a one-partition database and requires identical
// row counts and byte-identical dumps.
func TestParallelWriteMatchesSerial(t *testing.T) {
	par := newBatchTestDB(t, 4000, 4)
	ser := newBatchTestDB(t, 4000, 1)

	writes := []struct {
		sql  string
		args []any
	}{
		{"UPDATE p SET val = val + 7 WHERE val > ?", []any{500}},
		{"DELETE FROM p WHERE grp = ? AND val < ?", []any{2, 300}},
		{"UPDATE p SET s = ? WHERE s = ?", []any{"omega", "alpha"}},
		{"DELETE FROM p WHERE f IS NULL AND val > ?", []any{900}},
		{"UPDATE p SET f = ? WHERE grp IS NULL", []any{0.25}},
	}
	for _, w := range writes {
		rp, err := par.Exec(w.sql, w.args...)
		if err != nil {
			t.Fatalf("partitioned %s: %v", w.sql, err)
		}
		rs, err := ser.Exec(w.sql, w.args...)
		if err != nil {
			t.Fatalf("serial %s: %v", w.sql, err)
		}
		if rp.RowsAffected != rs.RowsAffected {
			t.Fatalf("%s: partitioned affected %d, serial %d", w.sql, rp.RowsAffected, rs.RowsAffected)
		}
	}
	if par.DumpString() != ser.DumpString() {
		t.Fatal("partitioned and serial write workloads diverged")
	}
}

// TestParallelCursorEarlyClose opens a streaming scan on the exchange,
// pulls a few rows, and closes mid-stream: every worker goroutine must
// exit (no leak), and the closed cursor must refuse further reads.
func TestParallelCursorEarlyClose(t *testing.T) {
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
	waitGoroutines(t, base, "early close")
	if db.ParallelStats().ParallelScans == 0 {
		t.Fatal("cursor did not take the exchange")
	}

	// LIMIT exhaustion is an implicit early close: the consumer stops the
	// exchange once the limit is met, before the partitions are drained.
	rs, err := db.Query("SELECT id FROM p LIMIT 3")
	if err != nil || rs.Len() != 3 {
		t.Fatalf("limit query: %v rows=%d", err, rs.Len())
	}
	waitGoroutines(t, base, "limit early stop")
}

// TestParallelCursorInvalidatedByDDL bumps the schema generation while an
// exchange cursor streams; the next pull must fail with
// ErrCursorInvalidated and the workers must wind down.
func TestParallelCursorInvalidatedByDDL(t *testing.T) {
	db := newBatchTestDB(t, 6000, 4)
	base := runtime.NumGoroutine()
	cur, err := db.QueryCursor("SELECT id FROM p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE INDEX idx_p_val ON p (val)")
	if _, err := cur.Next(); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("Next after DDL: %v, want ErrCursorInvalidated", err)
	}
	cur.Close()
	waitGoroutines(t, base, "DDL invalidation")
}

// TestParallelScanConcurrentWriters streams exchange scans while writers
// churn the table. Reads are read-committed: rows may or may not be
// observed, but emission must stay strictly ascending by row ID and
// no row may be emitted twice (run under -race in CI).
func TestParallelScanConcurrentWriters(t *testing.T) {
	db := newBatchTestDB(t, 5000, 4)
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
		cur, err := db.QueryCursor("SELECT id FROM p")
		if err != nil {
			t.Fatal(err)
		}
		last := int64(-1)
		for {
			row, err := cur.Next()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if row == nil {
				break
			}
			id := row[0].(int64)
			if id <= last {
				t.Fatalf("round %d: row IDs not strictly ascending: %d after %d", round, id, last)
			}
			last = id
		}
		cur.Close()
	}
	close(stop)
	<-writerDone
}

// TestParallelQueryEachAbort aborts a QueryEach iteration on the exchange
// mid-stream; the workers must be reaped before QueryEach returns.
func TestParallelQueryEachAbort(t *testing.T) {
	db := newBatchTestDB(t, 6000, 4)
	base := runtime.NumGoroutine()
	stop := errors.New("stop")
	n := 0
	err := db.QueryEach("SELECT id FROM p", func(row []Value) error {
		n++
		if n == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("QueryEach: %v", err)
	}
	waitGoroutines(t, base, "QueryEach abort")
}

// TestRepartitionPreservesState re-shards a table across several partition
// counts; dumps, scans and snapshots must be byte-identical throughout —
// storage partitioning is invisible to every layer above it.
func TestRepartitionPreservesState(t *testing.T) {
	db := newBatchTestDB(t, 3000, 3)
	mustExec(t, db, "DELETE FROM p WHERE val BETWEEN 100 AND 300")
	db.Vacuum() // drop the deletion tombstones: leave dead IDs in the ID slices
	want := db.DumpString()
	wantRows := db.RowCount("p")
	for _, parts := range []int{1, 2, 5, 8, 3} {
		db.SetPartitions(parts)
		if got := db.DumpString(); got != want {
			t.Fatalf("dump changed after repartition to %d", parts)
		}
		if got := db.RowCount("p"); got != wantRows {
			t.Fatalf("row count %d after repartition to %d, want %d", got, parts, wantRows)
		}
		ps := db.PartitionStats()
		if len(ps) != 1 || ps[0].Partitions != parts {
			t.Fatalf("PartitionStats = %+v, want 1 table with %d partitions", ps, parts)
		}
		sum := 0
		for _, n := range ps[0].Rows {
			sum += n
		}
		if sum != wantRows {
			t.Fatalf("partition rows sum %d, want %d", sum, wantRows)
		}
	}
}

// TestSnapshotPartitionTransparency: databases built with different
// partition counts from the same statements must dump identically and
// save byte-identical snapshots, and a snapshot loads correctly into any
// partition layout.
func TestSnapshotPartitionTransparency(t *testing.T) {
	build := func(parts int) *DB {
		db := NewDB()
		db.SetPartitions(parts)
		mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, f REAL, s TEXT)")
		fillParallelTable(t, db, 500)
		mustExec(t, db, "DELETE FROM p WHERE val < 100")
		return db
	}
	a, b := build(1), build(7)
	if a.DumpString() != b.DumpString() {
		t.Fatal("dumps differ across partition counts")
	}
	dir := t.TempDir()
	if err := a.Save(dir + "/a.snap"); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir + "/a.snap")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DumpString() != a.DumpString() {
		t.Fatal("loaded dump differs")
	}
	// Restore into a database with a custom partition layout re-shards.
	c := NewDB()
	c.SetPartitions(5)
	if err := c.Restore(dir + "/a.snap"); err != nil {
		t.Fatal(err)
	}
	if c.DumpString() != a.DumpString() {
		t.Fatal("restored dump differs")
	}
	if ps := c.PartitionStats(); len(ps) != 1 || ps[0].Partitions != 5 {
		t.Fatalf("restored partition layout %+v, want 5 partitions", ps)
	}
}
