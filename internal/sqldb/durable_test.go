package sqldb

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"genmapper/internal/wal"
)

// reopen closes a durable DB and recovers it from the same filesystem.
func reopen(t *testing.T, db *DB, fs wal.FS, sync wal.SyncPolicy) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2, err := OpenDurable("", durableOpts(fs.(*wal.FaultFS), sync))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db2
}

func TestDurableReopenRecoveryReplaysLog(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(d *DB, sql string, args ...any) {
		t.Helper()
		if _, err := d.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(db, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
	for i := 0; i < 10; i++ {
		mustExec(db, "INSERT INTO t (v) VALUES (?)", fmt.Sprintf("v%d", i))
	}
	mustExec(db, "DELETE FROM t WHERE id = ?", 3)
	want := db.DumpString()

	db2 := reopen(t, db, fs, wal.SyncGroup)
	defer db2.Close()
	if got := db2.DumpString(); got != want {
		t.Fatalf("recovered state differs from pre-close state:\n--- want\n%s\n--- got\n%s", want, got)
	}
	st := db2.WALStats()
	if !st.Enabled || st.RecoveredRecords != 12 {
		t.Fatalf("WALStats after recovery = %+v, want 12 recovered records", st)
	}
	// And the recovered DB keeps committing to the same log.
	mustExec(db2, "INSERT INTO t (v) VALUES (?)", "after")
	if db2.WALStats().Appends == 0 {
		t.Fatal("no appends after recovery")
	}
}

func TestCheckpointPrunesAndRecoveryUsesIt(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALStats()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	after := db.WALStats()
	if after.Checkpoints != 1 || after.CheckpointLSN != before.LastLSN {
		t.Fatalf("checkpoint stats = %+v", after)
	}
	if after.SizeBytes >= before.SizeBytes {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", before.SizeBytes, after.SizeBytes)
	}
	if after.CheckpointLagRecs != 0 {
		t.Fatalf("checkpoint lag = %d, want 0", after.CheckpointLagRecs)
	}
	want := db.DumpString()

	db2 := reopen(t, db, fs, wal.SyncGroup)
	defer db2.Close()
	if got := db2.DumpString(); got != want {
		t.Fatal("recovery from checkpoint + empty tail diverged")
	}
	if st := db2.WALStats(); st.RecoveredRecords != 0 {
		t.Fatalf("recovered %d records, want 0 (all covered by checkpoint)", st.RecoveredRecords)
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", DurableOptions{
		Sync:               wal.SyncOff,
		SegmentSize:        512,
		CheckpointInterval: 5 * time.Millisecond,
		CheckpointBytes:    1, // checkpoint on any growth
		FS:                 fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.WALStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestoreResetsWALTail is the regression test for Restore-while-the-
// WAL-has-a-tail: without the reset, recovery would replay the pre-restore
// log records OVER the restored snapshot.
func TestRestoreResetsWALTail(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncGroup, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(sql string, args ...any) {
		t.Helper()
		if _, err := db.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (n INTEGER)")
	mustExec("INSERT INTO t (n) VALUES (?)", 1)
	mustExec("INSERT INTO t (n) VALUES (?)", 2)

	snap := filepath.Join(t.TempDir(), "external.snap")
	if err := db.Save(snap); err != nil {
		t.Fatal(err)
	}
	wantDump := db.DumpString()

	// Grow a WAL tail past the snapshot, including DDL.
	mustExec("INSERT INTO t (n) VALUES (?)", 3)
	mustExec("CREATE TABLE junk (x TEXT)")
	mustExec("INSERT INTO junk (x) VALUES (?)", "gone")

	if err := db.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := db.DumpString(); got != wantDump {
		t.Fatalf("restore did not reproduce snapshot state:\n%s", got)
	}
	// Post-restore commits land after the reset.
	mustExec("INSERT INTO t (n) VALUES (?)", 42)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncGroup, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("reopen after restore: %v", err)
	}
	defer db2.Close()
	if db2.TableInfo("junk") != nil {
		t.Fatal("pre-restore WAL tail was replayed over the restored snapshot")
	}
	rs, err := db2.Query("SELECT n FROM t ORDER BY n")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range rs.Rows {
		got = append(got, row[0].(int64))
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 42 {
		t.Fatalf("rows after reopen = %v, want [1 2 42]", got)
	}
}

// TestDDLRollbackThenRecovery: a rolled-back transaction containing DDL
// leaves nothing in the WAL; recovery must replay later commits onto the
// undone schema without tripping over the phantom DDL.
func TestDDLRollbackThenRecovery(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}

	// Transaction: DDL + writes, rolled back. The undo path reverses the
	// DDL in memory; the WAL must record none of it.
	tx := db.Begin()
	if _, err := tx.Exec("CREATE TABLE temp (x TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("CREATE INDEX idx_temp ON temp (x)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO temp (x) VALUES (?)", "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO t (n) VALUES (?)", 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Later commits reuse the rolled-back names: replay must see them in
	// commit order with the phantom DDL absent.
	if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", 1); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin()
	if _, err := tx2.Exec("CREATE TABLE temp (y INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("INSERT INTO temp (y) VALUES (?)", 9); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db.DumpString()

	db2 := reopen(t, db, fs, wal.SyncGroup)
	defer db2.Close()
	if got := db2.DumpString(); got != want {
		t.Fatalf("recovery after DDL rollback diverged:\n--- want\n%s\n--- got\n%s", want, got)
	}
	schema := db2.TableInfo("temp")
	if schema == nil || len(schema.Columns) != 1 || schema.Columns[0].Name != "y" {
		t.Fatal("recovered temp table has the rolled-back schema, not the committed one")
	}
}

// TestPoisonedLogFailsAndRollsBackLaterWrites: the first IO failure
// poisons the log. The commit in flight when it struck gets an error (its
// durability is unknown until recovery — the crash sweep covers that);
// every LATER commit must fail AND be rolled back, never becoming visible
// without a log record.
func TestPoisonedLogFailsAndRollsBackLaterWrites(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", 1); err != nil {
		t.Fatal(err)
	}
	fs.SetPlan(wal.FaultPlan{AtOp: fs.OpCount() + 1, Kind: wal.FaultErr})
	if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", 2); err == nil {
		t.Fatal("commit through injected IO failure succeeded")
	}
	rowsAfterFailure := db.RowCount("t")

	// The log is now poisoned: this commit's append fails outright, so it
	// must be undone — auto-commit and transaction alike.
	if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", 3); err == nil {
		t.Fatal("commit on poisoned log succeeded")
	}
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t (n) VALUES (?)", 4); err != nil {
		t.Fatal(err) // in-memory execute succeeds; Commit must fail
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("Tx.Commit on poisoned log succeeded")
	}
	if n := db.RowCount("t"); n != rowsAfterFailure {
		t.Fatalf("writes after log poisoning stayed visible: %d rows, want %d", n, rowsAfterFailure)
	}
}

// TestTxFailedStatementAtomicity: a statement that fails mid-way inside a
// transaction (row 1 of the multi-row INSERT lands, row 2 hits the unique
// index) must unwind its own rows immediately. If the caller ignores the
// error and commits anyway, the live state and the recovered state must
// both contain exactly the successful statements — the failed one in
// neither (it is also never logged).
func TestTxFailedStatementAtomicity(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", 1, "pre"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", 2, "ok"); err != nil {
		t.Fatal(err)
	}
	// Fails on the second row (duplicate PK 1); the first row (7) must not
	// survive the statement.
	if _, err := tx.Exec("INSERT INTO t VALUES (?, ?), (?, ?)", 7, "partial", 1, "dup"); err == nil {
		t.Fatal("duplicate-key INSERT succeeded")
	}
	if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", 3, "after"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int64]bool{1: true, 2: true, 3: true, 7: false} {
		rs, err := db.Query("SELECT v FROM t WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(rs.Rows) == 1; got != want {
			t.Fatalf("live: row %d present=%v, want %v", id, got, want)
		}
	}
	want := db.DumpString()

	db2 := reopen(t, db, fs, wal.SyncGroup)
	defer db2.Close()
	if got := db2.DumpString(); got != want {
		t.Fatalf("recovered state diverged from live committed state:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestNoOpStatementsNotLogged: statements that change nothing (re-run
// idempotent DDL, UPDATE matching no rows) append no log records, so
// repeated schema bootstraps do not grow the log.
func TestNoOpStatementsNotLogged(t *testing.T) {
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	base := db.WALStats().Appends
	if _, err := db.Exec("CREATE TABLE IF NOT EXISTS t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP TABLE IF EXISTS missing"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE t SET n = 1 WHERE n = 99"); err != nil {
		t.Fatal(err)
	}
	if got := db.WALStats().Appends; got != base {
		t.Fatalf("no-op statements appended %d log records", got-base)
	}
}

// TestGroupCommitFewerFsyncsThanCommits enforces the acceptance criterion:
// under concurrent committers, fsyncs < committed transactions.
func TestGroupCommitFewerFsyncsThanCommits(t *testing.T) {
	fs := wal.NewFaultFS()
	fs.SyncDelay = 200 * time.Microsecond
	db, err := OpenDurable("", durableOpts(fs, wal.SyncGroup))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (g INTEGER, i INTEGER)"); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := db.Exec("INSERT INTO t (g, i) VALUES (?, ?)", g, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := db.WALStats()
	commits := uint64(goroutines*perG) + 1 // + CREATE TABLE
	if st.Appends != commits {
		t.Fatalf("appends = %d, want %d", st.Appends, commits)
	}
	if st.Fsyncs >= commits {
		t.Fatalf("group commit ineffective: %d fsyncs for %d commits", st.Fsyncs, commits)
	}
	if n := db.RowCount("t"); n != goroutines*perG {
		t.Fatalf("rows = %d, want %d", n, goroutines*perG)
	}
	t.Logf("group commit: %d commits, %d fsyncs, max group %d", commits, st.Fsyncs, st.MaxGroupSize)
}

// TestDurableOnRealDirectory exercises the OSFS path end to end.
func TestDurableOnRealDirectory(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := OpenDurable(dir, DurableOptions{Sync: wal.SyncGroup, CheckpointInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	if _, err := db.Exec("CREATE TABLE t (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 5; i++ {
		if _, err := tx.Exec("INSERT INTO t (n) VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (n) VALUES (?)", 99); err != nil {
		t.Fatal(err)
	}
	want := db.DumpString()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open()
	defer db2.Close()
	if got := db2.DumpString(); got != want {
		t.Fatal("recovery on real directory diverged")
	}
	if n := db2.RowCount("t"); n != 6 {
		t.Fatalf("rows = %d, want 6", n)
	}
}

func TestWALStatsDisabledForInMemory(t *testing.T) {
	db := NewDB()
	if st := db.WALStats(); st.Enabled {
		t.Fatalf("in-memory DB reports WAL enabled: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close on in-memory DB: %v", err)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	stmts := []logStmt{
		{sql: "INSERT INTO t (a, b, c, d, e) VALUES (?, ?, ?, ?, ?)",
			args: []Value{int64(-42), 3.25, "héllo\x00world", true, nil}},
		{sql: "DELETE FROM t", args: nil},
		{sql: "UPDATE t SET a = ?", args: []Value{false}},
	}
	got, err := decodeRecord(encodeRecord(stmts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stmts) {
		t.Fatalf("decoded %d stmts, want %d", len(got), len(stmts))
	}
	for i := range stmts {
		if got[i].sql != stmts[i].sql {
			t.Fatalf("stmt %d sql = %q", i, got[i].sql)
		}
		if len(got[i].args) != len(stmts[i].args) {
			t.Fatalf("stmt %d has %d args, want %d", i, len(got[i].args), len(stmts[i].args))
		}
		for j := range stmts[i].args {
			a, b := got[i].args[j], stmts[i].args[j]
			if (a == nil) != (b == nil) || (a != nil && Compare(a, b) != 0) {
				t.Fatalf("stmt %d arg %d = %#v, want %#v", i, j, a, b)
			}
		}
	}
	// Garbage must fail loudly, not panic.
	if _, err := decodeRecord([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("decodeRecord accepted garbage")
	}
}
