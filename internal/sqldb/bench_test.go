package sqldb

// Engine micro-benchmarks: the substrate costs under every GenMapper
// experiment (point lookups, scans, hash joins, bulk inserts).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX idx_k ON t (k)"); err != nil {
		b.Fatal(err)
	}
	const chunk = 200
	for start := 0; start < rows; start += chunk {
		end := start + chunk
		if end > rows {
			end = rows
		}
		sql := "INSERT INTO t VALUES "
		args := make([]any, 0, (end-start)*3)
		for i := start; i < end; i++ {
			if i > start {
				sql += ", "
			}
			sql += "(?, ?, ?)"
			args = append(args, i, i%100, fmt.Sprintf("val%d", i))
		}
		if _, err := db.Exec(sql, args...); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsertSingleRow(b *testing.B) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t (v) VALUES (?)", "value"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBatch200 is one 200-row INSERT per op: into a table with
// only its primary key, and into the OBJECT_REL shape bulk imports write
// (AUTOINCREMENT key plus three secondary hash indexes, source_rel_id
// constant across the statement).
func BenchmarkInsertBatch200(b *testing.B) {
	b.Run("PKOnly", func(b *testing.B) {
		db := NewDB()
		if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)"); err != nil {
			b.Fatal(err)
		}
		args := make([]any, 200)
		for i := range args {
			args[i] = fmt.Sprintf("v%d", i)
		}
		benchInsert200(b, db, "INSERT INTO t (v) VALUES (?)", args)
	})
	b.Run("ObjectRel", func(b *testing.B) {
		db := NewDB()
		defer db.Close()
		for _, ddl := range objectRelDDL[:4] {
			if _, err := db.Exec(ddl); err != nil {
				b.Fatal(err)
			}
		}
		args := make([]any, 0, 800)
		for i := 0; i < 200; i++ {
			args = append(args, 7, 100+i/3, 1000+i, 0.5)
		}
		benchInsert200(b, db, "INSERT INTO object_rel (source_rel_id, object1_id, object2_id, evidence) VALUES (?, ?, ?, ?)", args)
	})
}

// benchInsert200 times the one-row INSERT text widened to 200 value groups.
func benchInsert200(b *testing.B, db *DB, oneRow string, args []any) {
	sql := multiRowSQL(oneRow, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(sql, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointLookupPK(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT v FROM t WHERE id = ?", i%10000)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatal("missing row")
		}
	}
}

func BenchmarkSecondaryIndexLookup(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT COUNT(*) FROM t WHERE k = ?", i%100)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows[0][0] != int64(100) {
			b.Fatalf("count = %v", rs.Rows[0][0])
		}
	}
}

func BenchmarkFullScanFilter(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM t WHERE v LIKE 'val1%'"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 10000)
	if _, err := db.Exec("CREATE TABLE dim (k INTEGER, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec("INSERT INTO dim VALUES (?, ?)", i, fmt.Sprintf("dim%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT COUNT(*) FROM t JOIN dim ON t.k = dim.k")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows[0][0] != int64(10000) {
			b.Fatalf("join count = %v", rs.Rows[0][0])
		}
	}
}

func BenchmarkGroupBy(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT k, COUNT(*) FROM t GROUP BY k")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 100 {
			b.Fatalf("groups = %d", rs.Len())
		}
	}
}

func BenchmarkOrderByLimit(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT id FROM t ORDER BY v DESC LIMIT 10"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseOnly(b *testing.B) {
	const sql = `SELECT g.symbol, a.term FROM genes g
		LEFT JOIN annos a ON g.id = a.gene_id
		WHERE g.symbol LIKE 'A%' AND a.term IN ('x', 'y')
		GROUP BY g.symbol HAVING COUNT(*) > 1 ORDER BY g.symbol LIMIT 10`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Statement cache / prepared statements: parse-per-call vs parse-once.

// cacheBenchSQL has the shape of a hot repository statement: long enough
// that lexing+parsing dominate a cheap indexed execution.
const cacheBenchSQL = `SELECT id, k, v FROM t
	WHERE id = ? AND k >= 0 AND k <= 100 AND v LIKE 'val%' LIMIT 1`

func BenchmarkQueryParsePerCall(b *testing.B) {
	db := benchDB(b, 10000)
	db.setStmtCacheCapacity(0) // seed behavior: every call re-lexes and re-parses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(cacheBenchSQL, i%10000)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatal("missing row")
		}
	}
}

func BenchmarkQueryStmtCache(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(cacheBenchSQL, i%10000)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatal("missing row")
		}
	}
}

func BenchmarkPreparedStmtQuery(b *testing.B) {
	db := benchDB(b, 10000)
	stmt, err := db.Prepare(cacheBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := stmt.Query(i % 10000)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 1 {
			b.Fatal("missing row")
		}
	}
}

// ---------------------------------------------------------------------------
// Index-aware planning: range predicates, ordered limits, join strategies.

// rangeBenchDB builds rows with a B-tree-indexed weight column; the range
// predicate below selects ~100 of 10000 rows.
func rangeBenchDB(b *testing.B) *DB {
	b.Helper()
	db := benchDB(b, 10000)
	if _, err := db.Exec("CREATE INDEX idx_w ON t (k) USING BTREE"); err != nil {
		b.Fatal(err)
	}
	return db
}

const rangeBenchSQL = "SELECT COUNT(*) FROM t WHERE k > 49 AND k <= 50"

func BenchmarkRangeQueryIndexed(b *testing.B) {
	db := rangeBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(rangeBenchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows[0][0] != int64(100) {
			b.Fatalf("count = %v", rs.Rows[0][0])
		}
	}
}

func BenchmarkRangeQueryFullScan(b *testing.B) {
	db := rangeBenchDB(b)
	db.setIndexAccess(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(rangeBenchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows[0][0] != int64(100) {
			b.Fatalf("count = %v", rs.Rows[0][0])
		}
	}
}

const orderBenchSQL = "SELECT id, k FROM t ORDER BY k DESC LIMIT 10"

func BenchmarkOrderByLimitIndexed(b *testing.B) {
	db := rangeBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(orderBenchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 10 {
			b.Fatalf("rows = %d", rs.Len())
		}
	}
}

func BenchmarkOrderByLimitFullSort(b *testing.B) {
	db := rangeBenchDB(b)
	db.setIndexAccess(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(orderBenchSQL)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 10 {
			b.Fatalf("rows = %d", rs.Len())
		}
	}
}

// joinBenchDB pairs the fact table with an indexed dimension table.
func joinBenchDB(b *testing.B) *DB {
	b.Helper()
	db := benchDB(b, 10000)
	if _, err := db.Exec("CREATE TABLE dim (k INTEGER, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec("INSERT INTO dim VALUES (?, ?)", i, fmt.Sprintf("dim%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec("CREATE INDEX idx_dim_k ON dim (k)"); err != nil {
		b.Fatal(err)
	}
	return db
}

// The selective join: one dimension row joins its 100 fact rows. The seed
// strategy rebuilt a hash table over all 10000 fact rows per query; the
// index-nested-loop strategy probes the fact table's existing index instead.
const joinBenchSQL = "SELECT COUNT(*) FROM dim JOIN t ON dim.k = t.k WHERE dim.k = ?"

func BenchmarkJoinIndexLoop(b *testing.B) {
	db := joinBenchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(joinBenchSQL, i%100)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows[0][0] != int64(100) {
			b.Fatalf("join count = %v", rs.Rows[0][0])
		}
	}
}

func BenchmarkJoinHashRebuild(b *testing.B) {
	db := joinBenchDB(b)
	db.setIndexAccess(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(joinBenchSQL, i%100)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Rows[0][0] != int64(100) {
			b.Fatalf("join count = %v", rs.Rows[0][0])
		}
	}
}

func BenchmarkUpdateIndexed(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("UPDATE t SET v = ? WHERE id = ?", "updated", i%10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotSaveLoad(b *testing.B) {
	db := benchDB(b, 10000)
	dir := b.TempDir()
	path := dir + "/bench.snap"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Save(path); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// PR 3: streaming cursor execution vs the materialize-everything seed path.
// The export shape of the acceptance benchmark: a 100k-row result serialized
// to a writer. The materialized path builds the full [][]Value ResultSet
// first (the seed engine's only mode); the cursor path streams rows through
// one reused buffer, removing the O(rows) result allocations entirely.

var exportBenchDB *DB

func benchExportDB(b *testing.B) *DB {
	b.Helper()
	if exportBenchDB != nil {
		return exportBenchDB
	}
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE exp (id INTEGER PRIMARY KEY, acc TEXT, txt TEXT)"); err != nil {
		b.Fatal(err)
	}
	const rows, chunk = 100000, 200
	var sb strings.Builder
	for start := 0; start < rows; start += chunk {
		sb.Reset()
		sb.WriteString("INSERT INTO exp VALUES ")
		args := make([]any, 0, chunk*3)
		for i := start; i < start+chunk; i++ {
			if i > start {
				sb.WriteString(", ")
			}
			sb.WriteString("(?, ?, ?)")
			args = append(args, i, fmt.Sprintf("ACC:%07d", i), fmt.Sprintf("object %d description", i))
		}
		if _, err := db.Exec(sb.String(), args...); err != nil {
			b.Fatal(err)
		}
	}
	exportBenchDB = db
	return db
}

// writeRowTSV serializes one row the way an export renders it; both bench
// variants share it so the only difference is materialized vs streamed row
// production.
func writeRowTSV(w *bufio.Writer, row []Value) {
	for i, v := range row {
		if i > 0 {
			w.WriteByte('\t')
		}
		w.WriteString(FormatValue(v))
	}
	w.WriteByte('\n')
}

const exportBenchQuery = "SELECT id, acc, txt FROM exp"

func BenchmarkExport100kMaterialized(b *testing.B) {
	db := benchExportDB(b)
	w := bufio.NewWriterSize(io.Discard, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(exportBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 100000 {
			b.Fatalf("rows = %d", rs.Len())
		}
		for _, row := range rs.Rows {
			writeRowTSV(w, row)
		}
		w.Flush()
	}
}

func BenchmarkExport100kCursorStream(b *testing.B) {
	db := benchExportDB(b)
	w := bufio.NewWriterSize(io.Discard, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.QueryEach(exportBenchQuery, func(row []Value) error {
			writeRowTSV(w, row)
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != 100000 {
			b.Fatalf("rows = %d", n)
		}
		w.Flush()
	}
}

// The LIMIT-prefix shape: a consumer that needs only the first rows of a
// big result. A stream pays for what it reads, not for the table size.
func BenchmarkPrefix10Of100kMaterialized(b *testing.B) {
	db := benchExportDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(exportBenchQuery + " LIMIT 10")
		if err != nil || rs.Len() != 10 {
			b.Fatalf("%v / %d rows", err, rs.Len())
		}
	}
}

// errPrefixDone stops a streamed read after its prefix.
var errPrefixDone = errors.New("prefix read")

func BenchmarkPrefix10Of100kCursorStream(b *testing.B) {
	db := benchExportDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.QueryEach(exportBenchQuery, func([]Value) error {
			if n++; n == 10 {
				return errPrefixDone
			}
			return nil
		})
		if err != errPrefixDone {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// A 100k-row table for the full-table benchmarks below.

// benchBigDB builds a 100k-row table in 200-row INSERTs.
func benchBigDB(b *testing.B) *DB {
	b.Helper()
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	const chunk = 200
	for start := 0; start < 100000; start += chunk {
		sql := "INSERT INTO t VALUES "
		args := make([]any, 0, chunk*3)
		for i := start; i < start+chunk; i++ {
			if i > start {
				sql += ", "
			}
			sql += "(?, ?, ?)"
			args = append(args, i, i%100, fmt.Sprintf("val%d", i))
		}
		if _, err := db.Exec(sql, args...); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// ---------------------------------------------------------------------------
// Full-table shapes over the 100k-row table: scan+filter, selective
// filter, grouped aggregate and export streaming. The Vec* names keep
// their committed baselines.

func BenchmarkVecScanRowSerial(b *testing.B) {
	db := benchBigDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.QueryEach("SELECT id, v FROM t WHERE v <> 'nope'", func(row []Value) error {
			n++
			return nil
		})
		if err != nil || n != 100000 {
			b.Fatalf("%v / %d rows", err, n)
		}
	}
}

func BenchmarkVecFilterRowSerial(b *testing.B) {
	db := benchBigDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := db.QueryEach("SELECT id FROM t WHERE k < 10", func(row []Value) error {
			n++
			return nil
		})
		if err != nil || n != 10000 {
			b.Fatalf("%v / %d rows", err, n)
		}
	}
}

func BenchmarkVecAggRowSerial(b *testing.B) {
	db := benchBigDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT k, COUNT(*), SUM(id), MIN(v) FROM t GROUP BY k")
		if err != nil || rs.Len() != 100 {
			b.Fatalf("%v / %d groups", err, rs.Len())
		}
	}
}

// BenchmarkVecExportRowSerial measures the view/export streaming shape:
// every column of every row delivered through QueryEach. The sink is a
// touch of each value rather than a TSV writer, so the bench isolates the
// engine's streaming cost.
func BenchmarkVecExportRowSerial(b *testing.B) {
	db := benchBigDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, bytes := 0, 0
		err := db.QueryEach("SELECT id, k, v FROM t", func(row []Value) error {
			bytes += len(row[2].(string))
			n++
			return nil
		})
		if err != nil || n != 100000 || bytes == 0 {
			b.Fatalf("%v / %d rows", err, n)
		}
	}
}

// ---------------------------------------------------------------------------
// CREATE INDEX over the 100k-row table (the name keeps its baseline).

func BenchmarkCreateIndexSerial(b *testing.B) {
	db := benchBigDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("CREATE INDEX idx_bench_v ON t (v) USING BTREE"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := db.Exec("DROP INDEX idx_bench_v"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
