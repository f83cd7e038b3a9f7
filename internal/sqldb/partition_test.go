package sqldb

import (
	"math/rand"
	"strings"
	"testing"
)

// Partition-layout transparency: storage is hash-partitioned by row ID,
// and no read or write may observe how. Each test runs the same workload
// on a four-partition layout and a one-partition layout (or re-shards in
// place) and requires byte-identical results.

// newPartitionTestDB builds a database sharded into parts partitions with
// a populated table `p` of n rows.
//
// Columns: id (pk), grp (0..6 or NULL), val (int), f (float or NULL), s
// (text).
func newPartitionTestDB(t *testing.T, n, parts int) *DB {
	t.Helper()
	db := NewDB()
	db.SetPartitions(parts)
	mustExec(t, db, "CREATE TABLE p (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER, f REAL, s TEXT)")
	fillPartitionTable(t, db, n)
	return db
}

func fillPartitionTable(t *testing.T, db *DB, n int) {
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

// withSerial runs fn with db re-sharded to one partition and restores the
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

// mustExecErrOK ignores execution errors (concurrent-churn helper: the
// row may already be gone).
func mustExecErrOK(db *DB, sql string, args ...any) {
	_, _ = db.Exec(sql, args...)
}

// TestParallelScanMatchesSerial asserts byte-identical output — including
// row order — between a four-partition and a one-partition layout for
// streaming SELECT shapes.
func TestParallelScanMatchesSerial(t *testing.T) {
	db := newPartitionTestDB(t, 5000, 4)
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
			t.Fatalf("%s: 4 partitions != 1 partition\n4 partitions:\n%s\n1 partition:\n%s", q, par, ser)
		}
	}
}

// TestParallelAggregateMatchesSerial covers aggregation over a
// four-partition table: grouped and global aggregates, HAVING, and
// first-seen group ordering must all match a one-partition run exactly.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	db := newPartitionTestDB(t, 5000, 4)
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
		par := formatResult(mustQuery(t, db, q))
		var ser string
		withSerial(db, func() {
			ser = formatResult(mustQuery(t, db, q))
		})
		if par != ser {
			t.Fatalf("%s: 4 partitions != 1 partition\n4 partitions:\n%s\n1 partition:\n%s", q, par, ser)
		}
	}
}

// TestParallelWriteMatchesSerial runs the same UPDATE/DELETE workload on
// a four-partition and a one-partition database and requires identical
// row counts and byte-identical dumps.
func TestParallelWriteMatchesSerial(t *testing.T) {
	par := newPartitionTestDB(t, 4000, 4)
	ser := newPartitionTestDB(t, 4000, 1)

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

// TestParallelScanConcurrentWriters streams scans of a four-partition table
// while writers churn it. Each scan reads one snapshot; emission must stay
// strictly ascending by row ID and no row may be emitted twice (run under
// -race in CI).
func TestParallelScanConcurrentWriters(t *testing.T) {
	db := newPartitionTestDB(t, 5000, 4)
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

// TestRepartitionPreservesState re-shards a table across several partition
// counts; dumps, scans and snapshots must be byte-identical throughout —
// storage partitioning is invisible to every layer above it.
func TestRepartitionPreservesState(t *testing.T) {
	db := newPartitionTestDB(t, 3000, 3)
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
		fillPartitionTable(t, db, 500)
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
