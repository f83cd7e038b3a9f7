package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"genmapper/internal/wal"
)

// dbCommit is one committed transaction of a crash-test workload: either a
// single auto-commit statement or a multi-statement transaction.
type dbCommit struct {
	stmts []logStmt
	tx    bool
}

func autoCommit(sql string, args ...any) dbCommit {
	vals, err := normalizeArgs(args)
	if err != nil {
		panic(err)
	}
	return dbCommit{stmts: []logStmt{{sql: sql, args: vals}}}
}

func txCommit(stmts ...logStmt) dbCommit { return dbCommit{stmts: stmts, tx: true} }

func st(sql string, args ...any) logStmt {
	vals, err := normalizeArgs(args)
	if err != nil {
		panic(err)
	}
	return logStmt{sql: sql, args: vals}
}

// apply runs one commit against a database. For transactions, a failure
// mid-transaction rolls back (the commit is all-or-nothing in the shadow
// too).
func (c dbCommit) apply(db *DB) error {
	anyArgs := func(vals []Value) []any {
		out := make([]any, len(vals))
		for i, v := range vals {
			out[i] = v
		}
		return out
	}
	if !c.tx {
		_, err := db.Exec(c.stmts[0].sql, anyArgs(c.stmts[0].args)...)
		return err
	}
	tx := db.Begin()
	for _, s := range c.stmts {
		if _, err := tx.Exec(s.sql, anyArgs(s.args)...); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

// crashWorkload is a fixed, deterministic commit sequence covering INSERT,
// UPDATE, DELETE, DDL (CREATE/DROP TABLE and INDEX) and a multi-statement
// transaction.
func crashWorkload() []dbCommit {
	cs := []dbCommit{
		autoCommit("CREATE TABLE kv (id INTEGER PRIMARY KEY AUTOINCREMENT, k TEXT NOT NULL, v INTEGER)"),
		autoCommit("CREATE INDEX idx_kv_k ON kv (k)"),
	}
	for i := 0; i < 8; i++ {
		cs = append(cs, autoCommit("INSERT INTO kv (k, v) VALUES (?, ?)", fmt.Sprintf("key-%d", i), i*10))
	}
	for i := 8; i < 14; i++ {
		cs = append(cs, autoCommit("INSERT INTO kv (k, v) VALUES (?, ?)", fmt.Sprintf("key-%d", i), i*10))
	}
	cs = append(cs,
		autoCommit("UPDATE kv SET v = v + 1 WHERE k = ?", "key-3"),
		autoCommit("DELETE FROM kv WHERE k = ?", "key-5"),
		txCommit(
			st("INSERT INTO kv (k, v) VALUES (?, ?)", "tx-a", 100),
			st("INSERT INTO kv (k, v) VALUES (?, ?)", "tx-b", 200),
			st("UPDATE kv SET v = 0 WHERE k = ?", "key-0"),
		),
		autoCommit("CREATE TABLE aux (name TEXT, score REAL)"),
		autoCommit("INSERT INTO aux (name, score) VALUES (?, ?), (?, ?)", "x", 1.5, "y", 2.5),
		autoCommit("CREATE INDEX idx_aux_name ON aux (name)"),
		autoCommit("DROP INDEX idx_aux_name"),
		autoCommit("DELETE FROM kv WHERE v > ?", 150),
		autoCommit("DROP TABLE aux"),
		autoCommit("INSERT INTO kv (k, v) VALUES (?, ?)", "final", 999),
	)
	return cs
}

// prefixDumps applies the commits to a fresh in-memory database and
// records its deterministic dump after every commit. prefix[i] is the
// state after the first i commits.
func prefixDumps(t *testing.T, commits []dbCommit) []string {
	t.Helper()
	shadow := NewDB()
	dumps := []string{shadow.DumpString()}
	for i, c := range commits {
		if err := c.apply(shadow); err != nil {
			t.Fatalf("shadow commit %d: %v", i, err)
		}
		dumps = append(dumps, shadow.DumpString())
	}
	return dumps
}

// matchPrefix finds which committed prefix a recovered dump equals, or
// -1. The LARGEST matching index is returned: a no-op commit can leave
// two adjacent prefixes byte-identical, and durability is judged against
// the latest state the bytes can represent.
func matchPrefix(dumps []string, got string) int {
	for i := len(dumps) - 1; i >= 0; i-- {
		if dumps[i] == got {
			return i
		}
	}
	return -1
}

// durableOpts returns test options: no background checkpointer (its timing
// would make IO-op numbering nondeterministic), small segments so the
// sweep also crosses rotation boundaries.
func durableOpts(fs wal.FS, sync wal.SyncPolicy) DurableOptions {
	return DurableOptions{
		Sync:               sync,
		SegmentSize:        512,
		CheckpointInterval: -1,
		FS:                 fs,
	}
}

// runCrashPoint executes the workload against a durable DB on fs with a
// fault planned at IO op n, optionally checkpointing mid-way, and returns
// how many commits were acknowledged.
func runCrashPoint(t *testing.T, fs *wal.FaultFS, commits []dbCommit, checkpointAfter int) (acked int) {
	t.Helper()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	for i, c := range commits {
		if err := c.apply(db); err != nil {
			return acked
		}
		acked++
		if checkpointAfter > 0 && i+1 == checkpointAfter {
			if err := db.Checkpoint(); err != nil {
				// A failed checkpoint must never lose data; committing may
				// continue or fail depending on where the fault landed.
				continue
			}
		}
	}
	return acked
}

// TestDBCrashSweep is the database half of the fault-injection harness:
// for EVERY IO operation (write or fsync) the workload performs — once
// plain, once with a mid-workload checkpoint — it crashes the filesystem
// at that operation, recovers, and asserts the recovered database is
// byte-identical to some committed prefix of the workload that includes
// every acknowledged commit. Torn tails (partial sector flush at the
// crash) are exercised on every third point.
func TestDBCrashSweep(t *testing.T) {
	commits := crashWorkload()
	dumps := prefixDumps(t, commits)

	for _, cfg := range []struct {
		name       string
		checkpoint int
	}{
		{"log-only", 0},
		{"with-checkpoint", 9},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			// Dry run sizes the sweep.
			dry := wal.NewFaultFS()
			if n := runCrashPoint(t, dry, commits, cfg.checkpoint); n != len(commits) {
				t.Fatalf("dry run acked %d of %d", n, len(commits))
			}
			total := dry.OpCount()
			if total < 50 {
				t.Fatalf("workload too small: %d IO ops, need >= 50 crash points", total)
			}
			t.Logf("sweeping %d crash points", total)

			for op := 1; op <= total; op++ {
				fs := wal.NewFaultFS()
				fs.SetPlan(wal.FaultPlan{AtOp: op, Kind: wal.FaultCrash})
				acked := runCrashPoint(t, fs, commits, cfg.checkpoint)

				var torn func(int) int
				if op%3 == 0 {
					rng := rand.New(rand.NewSource(int64(op)))
					torn = func(unsynced int) int {
						if unsynced == 0 {
							return 0
						}
						return rng.Intn(unsynced + 1)
					}
				}
				fs.SimulateCrash(torn)

				rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
				if err != nil {
					t.Fatalf("op %d: recovery failed: %v", op, err)
				}
				got := rec.DumpString()
				k := matchPrefix(dumps, got)
				if k < 0 {
					t.Fatalf("op %d: recovered state equals NO committed prefix (torn or reordered)\nacked=%d\n%s", op, acked, got)
				}
				if k < acked {
					t.Fatalf("op %d: recovered prefix %d but %d commits were acknowledged — durability violated", op, k, acked)
				}
				// The recovered database must accept new writes (kv may not
				// exist yet when the crash predates its CREATE).
				if _, err := rec.Exec("CREATE TABLE IF NOT EXISTS probe (x INTEGER)"); err != nil {
					t.Fatalf("op %d: write after recovery: %v", op, err)
				}
				rec.Close()
			}
		})
	}
}

// TestDBCrashSweepPartitioned proves the WAL and checkpoint/recovery
// machinery is partition-transparent: the durable database runs sharded,
// the shadow prefix dumps come from a database sharded to a DIFFERENT
// partition count, and after a crash at every third IO op the recovered
// dump (default layout) must still be byte-identical to a committed shadow
// prefix.
func TestDBCrashSweepPartitioned(t *testing.T) {
	commits := crashWorkload()

	shadow := NewDB()
	shadow.SetPartitions(5)
	dumps := []string{shadow.DumpString()}
	for i, c := range commits {
		if err := c.apply(shadow); err != nil {
			t.Fatalf("shadow commit %d: %v", i, err)
		}
		dumps = append(dumps, shadow.DumpString())
	}

	runPoint := func(fs *wal.FaultFS) int {
		db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer db.Close()
		db.SetPartitions(4)
		acked := 0
		for _, c := range commits {
			if err := c.apply(db); err != nil {
				return acked
			}
			acked++
		}
		return acked
	}

	dry := wal.NewFaultFS()
	if n := runPoint(dry); n != len(commits) {
		t.Fatalf("dry run acked %d of %d", n, len(commits))
	}
	total := dry.OpCount()
	for op := 1; op <= total; op += 3 {
		fs := wal.NewFaultFS()
		fs.SetPlan(wal.FaultPlan{AtOp: op, Kind: wal.FaultCrash})
		acked := runPoint(fs)
		fs.SimulateCrash(nil)

		rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("op %d: recovery failed: %v", op, err)
		}
		got := rec.DumpString()
		rec.Close()
		k := matchPrefix(dumps, got)
		if k < 0 {
			t.Fatalf("op %d: recovered partitioned state equals NO committed prefix\nacked=%d\n%s", op, acked, got)
		}
		if k < acked {
			t.Fatalf("op %d: recovered prefix %d but %d commits acknowledged", op, k, acked)
		}
	}
}

// TestRandomizedRecoveryOracle extends the planner-equivalence fuzz style
// to durability: N random write statements run against an in-memory
// shadow and a durable database; the durable one is killed at a random
// record boundary, recovered, and its dump must be byte-identical to the
// shadow's dump after the committed prefix.
func TestRandomizedRecoveryOracle(t *testing.T) {
	const rounds = 30
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) * 7919))
		commits := randomWorkload(rng)
		dumps := prefixDumps(t, commits)

		// Dry run to learn the op budget for this workload.
		dry := wal.NewFaultFS()
		if n := runCrashPoint(t, dry, commits, 0); n != len(commits) {
			t.Fatalf("round %d: dry run acked %d of %d", round, n, len(commits))
		}
		op := 1 + rng.Intn(dry.OpCount())

		fs := wal.NewFaultFS()
		fs.SetPlan(wal.FaultPlan{AtOp: op, Kind: wal.FaultCrash})
		acked := runCrashPoint(t, fs, commits, 0)
		var torn func(int) int
		if rng.Intn(2) == 0 {
			torn = func(unsynced int) int {
				if unsynced == 0 {
					return 0
				}
				return rng.Intn(unsynced + 1)
			}
		}
		fs.SimulateCrash(torn)

		rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("round %d op %d: recovery: %v", round, op, err)
		}
		got := rec.DumpString()
		rec.Close()
		k := matchPrefix(dumps, got)
		if k < 0 {
			t.Fatalf("round %d op %d: recovered state matches no committed prefix", round, op)
		}
		if k < acked {
			t.Fatalf("round %d op %d: recovered prefix %d < %d acked", round, op, k, acked)
		}
	}
}

// TestMVCCCrashSweepInFlightTx is the MVCC leg of the fault harness: the
// workload runs under snapshot isolation (commit epochs published after
// the WAL append), a vacuum pass runs mid-way, and at every crash point a
// transaction with UNCOMMITTED provisional versions is left in flight
// before the crash. Recovery must be byte-identical to a committed prefix
// covering every acknowledged commit, and the in-flight transaction's
// provisional rows must never resurrect (they are in no prefix, so a
// resurrected row fails the prefix match — the marker check just names
// the failure).
func TestMVCCCrashSweepInFlightTx(t *testing.T) {
	commits := crashWorkload()
	dumps := prefixDumps(t, commits)

	runPoint := func(fs *wal.FaultFS) int {
		db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer db.Close()
		db.SetMVCC(true)
		acked := 0
		for i, c := range commits {
			if err := c.apply(db); err != nil {
				return acked
			}
			acked++
			if i == len(commits)/2 {
				db.Vacuum()
			}
		}
		return acked
	}

	dry := wal.NewFaultFS()
	if n := runPoint(dry); n != len(commits) {
		t.Fatalf("dry run acked %d of %d", n, len(commits))
	}
	total := dry.OpCount()
	for op := 1; op <= total; op += 2 {
		fs := wal.NewFaultFS()
		fs.SetPlan(wal.FaultPlan{AtOp: op, Kind: wal.FaultCrash})

		db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("op %d: open: %v", op, err)
		}
		db.SetMVCC(true)
		acked := 0
		for i, c := range commits {
			if err := c.apply(db); err != nil {
				break
			}
			acked++
			if i == len(commits)/2 {
				db.Vacuum()
			}
		}
		// Leave a writing transaction in flight: its provisional versions
		// exist in memory (never logged, never published) when the crash
		// is taken. kv may not exist yet at early crash points; then the
		// in-flight write simply targets nothing.
		tx := db.Begin()
		tx.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", "inflight", -1)
		tx.Exec("UPDATE kv SET v = -2 WHERE k = ?", "key-1")
		fs.SimulateCrash(nil)
		tx.Rollback()
		db.Close()

		rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("op %d: recovery failed: %v", op, err)
		}
		got := rec.DumpString()
		rec.Close()
		if strings.Contains(got, "inflight") {
			t.Fatalf("op %d: in-flight transaction's provisional row resurrected:\n%s", op, got)
		}
		k := matchPrefix(dumps, got)
		if k < 0 {
			t.Fatalf("op %d: recovered MVCC state equals NO committed prefix\nacked=%d\n%s", op, acked, got)
		}
		if k < acked {
			t.Fatalf("op %d: recovered prefix %d but %d commits acknowledged — durability violated", op, k, acked)
		}
	}
}

// randomWorkload builds a random but replayable commit sequence over two
// tables.
func randomWorkload(rng *rand.Rand) []dbCommit {
	cs := []dbCommit{
		autoCommit("CREATE TABLE a (id INTEGER PRIMARY KEY AUTOINCREMENT, n INTEGER, s TEXT)"),
		autoCommit("CREATE TABLE b (n INTEGER, t TEXT)"),
		autoCommit("CREATE INDEX idx_a_n ON a (n)"),
	}
	n := 10 + rng.Intn(15)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			cs = append(cs, autoCommit("INSERT INTO a (n, s) VALUES (?, ?)", rng.Intn(50), fmt.Sprintf("s%d", rng.Intn(100))))
		case 4, 5:
			cs = append(cs, autoCommit("INSERT INTO b (n, t) VALUES (?, ?)", rng.Intn(50), "b"))
		case 6:
			cs = append(cs, autoCommit("UPDATE a SET n = ? WHERE n = ?", rng.Intn(50), rng.Intn(50)))
		case 7:
			cs = append(cs, autoCommit("DELETE FROM a WHERE n = ?", rng.Intn(50)))
		case 8:
			cs = append(cs, txCommit(
				st("INSERT INTO a (n, s) VALUES (?, ?)", rng.Intn(50), "tx"),
				st("DELETE FROM b WHERE n = ?", rng.Intn(50)),
			))
		case 9:
			cs = append(cs, autoCommit("UPDATE b SET t = ? WHERE n > ?", fmt.Sprintf("u%d", i), rng.Intn(40)))
		}
	}
	return cs
}

// TestMVCCMultiWriterWALEquivalence is the concurrent-writer oracle: N
// latched writers on disjoint key ranges commit concurrently, and the
// recovered database — WAL replay alone, the crash discards nothing
// because every commit was acked under SyncAlways — must be
// byte-identical to the live dump. This pins the invariant that makes
// concurrent commit sound: WAL append order equals epoch publication
// order (both happen under db.commitMu), so a serial replay reproduces
// exactly the state the interleaved writers produced.
func TestMVCCMultiWriterWALEquivalence(t *testing.T) {
	const writers, rows, rounds = 4, 32, 6
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	db.SetMVCC(true)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for id := w; id < rows; id += writers {
					if _, err := db.Exec("UPDATE t SET n = n + 1 WHERE id = ?", id); err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	live := db.DumpString()
	fs.SimulateCrash(nil)
	db.Close()

	rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got := rec.DumpString()
	rec.Close()
	if got != live {
		t.Fatalf("WAL replay diverges from the live multi-writer state\nlive:\n%s\nrecovered:\n%s", live, got)
	}
}

// Conflict-heavy variant: every writer hammers the same eight rows with
// non-commutative assignments, so the final value of each row depends on
// exactly which commit published last. Replay equivalence therefore
// proves the append/publish order really is atomic under commitMu — a
// single swapped pair would recover a different byte image.
func TestMVCCMultiWriterWALEquivalenceConflict(t *testing.T) {
	const writers, iters = 4, 30
	fs := wal.NewFaultFS()
	db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	db.SetMVCC(true)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := db.Exec("UPDATE t SET n = ? WHERE id = ?", w*1000+i, i%8)
				if err != nil && !isWriteConflict(err) {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	live := db.DumpString()
	fs.SimulateCrash(nil)
	db.Close()

	rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got := rec.DumpString()
	rec.Close()
	if got != live {
		t.Fatalf("WAL replay diverges under write conflicts\nlive:\n%s\nrecovered:\n%s", live, got)
	}
}

// TestMVCCCrashSweepTwoLatchedWriters extends the in-flight-transaction
// sweep to the latched path: at every crash point TWO transactions have
// each installed provisional versions through latched UPDATEs on
// different rows — overlapping in time exactly as concurrent writers do —
// when the crash is taken. Neither was committed, so neither may appear
// in the recovered image, and recovery must still be byte-identical to an
// acknowledged prefix.
func TestMVCCCrashSweepTwoLatchedWriters(t *testing.T) {
	commits := crashWorkload()
	dumps := prefixDumps(t, commits)

	dry := wal.NewFaultFS()
	func() {
		db, err := OpenDurable("", durableOpts(dry, wal.SyncAlways))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer db.Close()
		db.SetMVCC(true)
		for _, c := range commits {
			if err := c.apply(db); err != nil {
				t.Fatalf("dry run: %v", err)
			}
		}
	}()
	total := dry.OpCount()
	for op := 1; op <= total; op += 2 {
		fs := wal.NewFaultFS()
		fs.SetPlan(wal.FaultPlan{AtOp: op, Kind: wal.FaultCrash})

		db, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("op %d: open: %v", op, err)
		}
		db.SetMVCC(true)
		acked := 0
		for _, c := range commits {
			if err := c.apply(db); err != nil {
				break
			}
			acked++
		}
		// Two writing transactions in flight on different rows: both took
		// the latched path (eligible UPDATEs), both hold uncommitted
		// provisional versions when the crash is taken. At early crash
		// points kv may not exist yet; then the writes target nothing.
		tx1 := db.Begin()
		tx1.Exec("UPDATE kv SET v = ? WHERE k = ?", -777, "key-2")
		tx2 := db.Begin()
		tx2.Exec("UPDATE kv SET v = ? WHERE k = ?", -888, "key-4")
		fs.SimulateCrash(nil)
		tx1.Rollback()
		tx2.Rollback()
		db.Close()

		rec, err := OpenDurable("", durableOpts(fs, wal.SyncAlways))
		if err != nil {
			t.Fatalf("op %d: recovery failed: %v", op, err)
		}
		got := rec.DumpString()
		rec.Close()
		if strings.Contains(got, "-777") || strings.Contains(got, "-888") {
			t.Fatalf("op %d: uncommitted latched write resurrected:\n%s", op, got)
		}
		k := matchPrefix(dumps, got)
		if k < 0 {
			t.Fatalf("op %d: recovered state equals NO committed prefix\nacked=%d\n%s", op, acked, got)
		}
		if k < acked {
			t.Fatalf("op %d: recovered prefix %d but %d commits acknowledged — durability violated", op, k, acked)
		}
	}
}
