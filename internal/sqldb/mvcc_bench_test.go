package sqldb

// Snapshot-isolation benchmarks: the snapshot acquire/release and version
// resolution on the hot paths (point lookup, scan+filter, grouped
// aggregate, single-row update), plus the contention shape — many readers
// sharing the snapshot tracker with no database lock.

import "testing"

// Counterpart of BenchmarkPointLookupPK: adds the snapshot acquire/release
// and the per-row version-chain resolve.
func BenchmarkMVCCPointLookup(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
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

// Counterpart of BenchmarkFullScanFilter on the lock-free scan path.
func BenchmarkMVCCScanFilter(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT id FROM t WHERE k < 50 AND v <> 'nope'")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 5000 {
			b.Fatalf("rows = %d", rs.Len())
		}
	}
}

// Grouped aggregate under MVCC: a full scan resolving every row at the
// statement's snapshot, one row-map RLock per probe.
func BenchmarkMVCCGroupBy(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query("SELECT k, COUNT(*), MIN(id) FROM t GROUP BY k")
		if err != nil {
			b.Fatal(err)
		}
		if rs.Len() != 100 {
			b.Fatalf("groups = %d", rs.Len())
		}
	}
}

// Writer path: provisional install and epoch publication, with the
// background vacuum goroutine running as it would in production.
func BenchmarkMVCCUpdateRow(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("UPDATE t SET v = ? WHERE id = ?", "upd", i%10000); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel point readers with no writer: the snapshot tracker mutex is
// the only shared state, so this measures reader-reader scalability.
func BenchmarkMVCCReadersParallel(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rs, err := db.Query("SELECT v FROM t WHERE id = ?", i%10000)
			if err != nil {
				b.Fatal(err)
			}
			if rs.Len() != 1 {
				b.Fatal("missing row")
			}
			i++
		}
	})
}

// Single-row INSERT with version-chain storage: the regression the blind
// two-append bookkeeping shaves (the BenchmarkInsertSingleRow shape, on a
// pre-sized table).
func BenchmarkMVCCInsertRow(b *testing.B) {
	db := benchDB(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?, ?)", i, i%100, "ins"); err != nil {
			b.Fatal(err)
		}
	}
}
