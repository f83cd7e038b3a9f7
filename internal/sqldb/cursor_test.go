package sqldb

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"genmapper/internal/wal"
)

func cursorTestDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	fillCursorTable(t, db, 0, rows)
	return db
}

// fillCursorTable creates table c (when from is 0) and inserts rows
// [from, to): id i, k = i%7, s = "s%04d".
func fillCursorTable(t *testing.T, db *DB, from, to int) {
	t.Helper()
	if from == 0 {
		mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)")
		mustExec(t, db, "CREATE INDEX idx_c_k ON c (k) USING BTREE")
	}
	for i := from; i < to; i++ {
		mustExec(t, db, "INSERT INTO c VALUES (?, ?, ?)", i, i%7, fmt.Sprintf("s%04d", i))
	}
}

// eachRows streams a query through QueryEach and copies every row out
// (the row slice is reused between callbacks).
func eachRows(each func(string, func([]Value) error, ...any) error, q string, args ...any) ([][]Value, error) {
	var out [][]Value
	err := each(q, func(row []Value) error {
		out = append(out, append([]Value(nil), row...))
		return nil
	}, args...)
	return out, err
}

// parkQuery runs sql through QueryEach on its own goroutine and returns
// once the callback holds the first row. The statement's snapshot stays
// registered while the callback is parked; resume lets it return and
// yields every row the statement streamed.
func parkQuery(t *testing.T, db *DB, sql string) (resume func() [][]Value) {
	t.Helper()
	parked, release := make(chan struct{}), make(chan struct{})
	var rows [][]Value
	done := make(chan error, 1)
	go func() {
		done <- db.QueryEach(sql, func(row []Value) error {
			rows = append(rows, append([]Value(nil), row...))
			if len(rows) == 1 {
				close(parked)
				<-release
			}
			return nil
		})
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("%s returned (%v) before its first row", sql, err)
	}
	return func() [][]Value {
		t.Helper()
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows
	}
}

// pinnedSnapshot is a snapshot registered the way a statement registers
// one when it starts; query reads at it later through the path every
// Query and QueryEach takes.
type pinnedSnapshot struct {
	db   *DB
	snap uint64
}

func pinSnapshot(db *DB) *pinnedSnapshot {
	return &pinnedSnapshot{db: db, snap: db.snaps.acquire(db)}
}

func (p *pinnedSnapshot) query(t *testing.T, sql string) *ResultSet {
	t.Helper()
	rs, err := p.db.stmts.get(p.db, sql).collect(nil, visibility{snap: p.snap})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func (p *pinnedSnapshot) release() { p.db.snaps.release(p.snap) }

// Query and QueryEach of DB, Stmt and Tx run one drain: on every shape
// they return the same rows in the same order.
func TestCursorMatchesQuery(t *testing.T) {
	db := cursorTestDB(t, 500)
	for _, q := range []string{
		"SELECT * FROM c",
		"SELECT id, s FROM c WHERE k = 3",
		"SELECT id FROM c WHERE k IN (1, 2) AND id > 100",
		"SELECT id, k FROM c ORDER BY k",                    // ordered via B-tree, >1 chunk
		"SELECT id, k FROM c ORDER BY k DESC",               // descending tie reversal
		"SELECT id, k FROM c ORDER BY k LIMIT 10",           // early exit
		"SELECT id FROM c ORDER BY s DESC LIMIT 5 OFFSET 3", // buffered sort
		"SELECT k, COUNT(*) FROM c GROUP BY k ORDER BY k",   // buffered aggregation
		"SELECT DISTINCT k FROM c",
		"SELECT id FROM c LIMIT 20 OFFSET 490",
		"SELECT id FROM c WHERE k = 99", // empty result
		"EXPLAIN SELECT id FROM c WHERE k = 3",
	} {
		want := fmt.Sprint(mustQuery(t, db, q).Rows)
		s, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		legs := map[string]func() ([][]Value, error){
			"DB.QueryEach": func() ([][]Value, error) { return eachRows(db.QueryEach, q) },
			"Tx.QueryEach": func() ([][]Value, error) { return eachRows(tx.QueryEach, q) },
			"Stmt.QueryEach": func() ([][]Value, error) {
				return eachRows(func(_ string, fn func([]Value) error, _ ...any) error { return s.QueryEach(fn) }, q)
			},
			"Stmt.Query": func() ([][]Value, error) {
				rs, err := s.Query()
				if err != nil {
					return nil, err
				}
				return rs.Rows, nil
			},
			"Tx.Query": func() ([][]Value, error) {
				rs, err := tx.Query(q)
				if err != nil {
					return nil, err
				}
				return rs.Rows, nil
			},
		}
		for name, leg := range legs {
			got, err := leg()
			if err != nil {
				t.Fatalf("%s: %s: %v", q, name, err)
			}
			if fmt.Sprint(got) != want {
				t.Fatalf("%s:\n%s %v\nDB.Query %s", q, name, got, want)
			}
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
}

// A callback that returns an error stops the read: no further row
// arrives, the error comes back as is, no snapshot stays registered and
// writers proceed.
func TestCursorEarlyClose(t *testing.T) {
	db := cursorTestDB(t, 100)
	stop := errors.New("stop")
	for _, q := range []string{
		"SELECT id FROM c",             // streaming scan
		"SELECT id FROM c WHERE k = 3", // streaming index seek
		"SELECT id FROM c ORDER BY s",  // buffered sort
	} {
		n := 0
		err := db.QueryEach(q, func([]Value) error {
			n++
			return stop
		})
		if !errors.Is(err, stop) || n != 1 {
			t.Fatalf("%s: QueryEach = %v after %d rows, want the callback's error after 1", q, err, n)
		}
		if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
			t.Fatalf("%s: a stopped read left %d snapshots registered", q, st.ActiveSnapshots)
		}
	}
	mustExec(t, db, "INSERT INTO c VALUES (1000, 0, 'late')")
}

func TestCursorSurvivesDML(t *testing.T) {
	db := cursorTestDB(t, 100)
	seen := map[int64]bool{}
	err := db.QueryEach("SELECT id FROM c", func(row []Value) error {
		id := row[0].(int64)
		if seen[id] {
			return fmt.Errorf("row %d emitted twice", id)
		}
		seen[id] = true
		if len(seen) == 10 {
			// DML while the statement streams must never make it re-emit
			// a row, and must not change what it streams: it reads the
			// snapshot it started at.
			mustExec(t, db, "DELETE FROM c WHERE id >= 50 AND id < 70")
			mustExec(t, db, "INSERT INTO c VALUES (2000, 1, 'new')")
			mustExec(t, db, "UPDATE c SET s = 'upd' WHERE id < 5")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 || seen[2000] {
		t.Fatalf("QueryEach streamed %d rows (row 2000 seen: %v), want exactly the 100 of its snapshot", len(seen), seen[2000])
	}
	if got := mustQuery(t, db, "SELECT COUNT(*) FROM c").Rows[0][0]; got != int64(81) {
		t.Fatalf("count after DML = %v, want 81", got)
	}
}

func TestCursorQueryCursorRejectsNonSelect(t *testing.T) {
	db := cursorTestDB(t, 1)
	const ins = "INSERT INTO c VALUES (900, 0, 'x')"
	if err := db.QueryEach(ins, func([]Value) error { return nil }); err == nil {
		t.Fatal("QueryEach accepted INSERT")
	}
	if _, err := db.Query(ins); err == nil {
		t.Fatal("Query accepted INSERT")
	}
	if got := mustQuery(t, db, "SELECT COUNT(*) FROM c").Rows[0][0]; got != int64(1) {
		t.Fatalf("count = %v after the rejected INSERTs, want 1", got)
	}
}

// A point read streamed through Tx.QueryEach finds the transaction's own
// uncommitted insert.
func TestTxQueryCursorSeesOwnWrites(t *testing.T) {
	db := cursorTestDB(t, 5)
	defer db.Close()
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO c VALUES (500, 0, 'tx')"); err != nil {
		t.Fatal(err)
	}
	if rows, err := eachRows(tx.QueryEach, "SELECT id FROM c WHERE id = 500"); err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, err = %v; want the uncommitted row", rows, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// Tx.QueryEach reads with the transaction's visibility: its own
// uncommitted insert and update are there, its delete is not, and a plain
// reader sees none of it.
func TestTxQueryEachSeesOwnWrites(t *testing.T) {
	db := cursorTestDB(t, 5)
	defer db.Close()
	tx := db.Begin()
	for _, sql := range []string{
		"INSERT INTO c VALUES (500, 0, 'tx')",
		"UPDATE c SET s = 'mine' WHERE id = 1",
		"DELETE FROM c WHERE id = 2",
	} {
		if _, err := tx.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int64]string{}
	err := tx.QueryEach("SELECT id, s FROM c WHERE id >= ?", func(row []Value) error {
		got[row[0].(int64)] = row[1].(string)
		return nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[500] != "tx" || got[1] != "mine" || got[2] != "" {
		t.Fatalf("transaction reads %v, want its own insert, update and delete", got)
	}
	if rs := mustQuery(t, db, "SELECT id FROM c WHERE id = 500 OR s = 'mine'"); len(rs.Rows) != 0 {
		t.Fatalf("uncommitted writes visible outside the transaction: %v", rs.Rows)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.QueryEach("SELECT id FROM c", func([]Value) error { return nil }); err == nil {
		t.Fatal("QueryEach on a finished transaction succeeded")
	}
}

// TestCursorConcurrentWriters streams QueryEach reads while writer
// goroutines hammer the same table. Run under -race this proves the
// lock-free snapshot reads are sound; the assertions prove rows stay
// well-formed and IDs never repeat.
func TestCursorConcurrentWriters(t *testing.T) {
	db := cursorTestDB(t, 2000)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := 10000 + w*100000 + i
				if _, err := db.Exec("INSERT INTO c VALUES (?, ?, 'w')", id, i%7); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, err := db.Exec("DELETE FROM c WHERE id = ?", id); err != nil {
						t.Error(err)
						return
					}
				}
				if i%5 == 0 {
					if _, err := db.Exec("UPDATE c SET s = 'u' WHERE id = ?", i%2000); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	for round := 0; round < 5; round++ {
		for _, q := range []string{
			"SELECT id, k, s FROM c",
			"SELECT id FROM c WHERE k = 3",
			"SELECT id, k FROM c ORDER BY k",
		} {
			// Scans walk ascending internal row IDs, so no row — however
			// the writers interleave — may ever be emitted twice.
			fullScan := q == "SELECT id, k, s FROM c"
			seen := make(map[int64]bool)
			err := db.QueryEach(q, func(row []Value) error {
				id, ok := row[0].(int64)
				if !ok {
					return fmt.Errorf("malformed id %v", row[0])
				}
				if fullScan {
					if seen[id] {
						return fmt.Errorf("row %d emitted twice", id)
					}
					seen[id] = true
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// A QueryEach in progress when DDL or a Restore (in memory or durable)
// commits from another goroutine finishes at its snapshot over the
// tables its plan bound. The next execution of the same statement
// re-plans and sees the new state, and no snapshot stays registered.
func TestQueryEachBesideDDLAndRestore(t *testing.T) {
	const half = 350 // the saved snapshot holds rows [0, half); the live table twice that
	restore := func(db *DB, saved string) error { return db.Restore(saved) }
	cases := []struct {
		name    string
		durable bool
		change  func(db *DB, saved string) error
		// next is what the statement's next execution returns: the live
		// rows, the saved rows, or (nil) an error. check looks at the
		// rest of the new state.
		next  string
		check func(t *testing.T, db *DB)
	}{
		{"create index", false, execDDL("CREATE INDEX idx_c_s ON c (s)"), "live", func(t *testing.T, db *DB) {
			wantPlanMentions(t, db, "SELECT id FROM c WHERE s = 's0001'", "idx_c_s", true)
		}},
		{"drop index", false, execDDL("DROP INDEX idx_c_k"), "live", func(t *testing.T, db *DB) {
			wantPlanMentions(t, db, "SELECT id FROM c WHERE k = 3", "idx_c_k", false)
		}},
		{"create table", false, execDDL("CREATE TABLE other (x INTEGER)"), "live", func(t *testing.T, db *DB) {
			mustQuery(t, db, "SELECT x FROM other")
		}},
		{"drop table", false, execDDL("DROP TABLE c"), "", nil},
		{"restore", false, restore, "saved", nil},
		{"restore durable", true, restore, "saved", nil},
	}
	for _, tc := range cases {
		for _, q := range []string{"SELECT id FROM c WHERE k = 3", "SELECT id, k FROM c"} {
			t.Run(tc.name+"/"+q, func(t *testing.T) {
				db := NewDB()
				if tc.durable {
					var err error
					if db, err = OpenDurable(t.TempDir(), DurableOptions{Sync: wal.SyncOff, CheckpointInterval: -1}); err != nil {
						t.Fatal(err)
					}
				}
				defer db.Close()
				fillCursorTable(t, db, 0, half)
				saved := filepath.Join(t.TempDir(), "c.snap")
				if err := db.Save(saved); err != nil {
					t.Fatal(err)
				}
				want := map[string]string{"saved": fmt.Sprint(mustQuery(t, db, q).Rows)}
				fillCursorTable(t, db, half, 2*half)
				want["live"] = fmt.Sprint(mustQuery(t, db, q).Rows)

				s, err := db.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				eachS := func(_ string, fn func([]Value) error, _ ...any) error { return s.QueryEach(fn) }
				var got [][]Value
				err = s.QueryEach(func(row []Value) error {
					got = append(got, append([]Value(nil), row...))
					if len(got) == 1 {
						changed := make(chan error)
						go func() { changed <- tc.change(db, saved) }()
						return <-changed
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != want["live"] {
					t.Fatalf("the statement in progress streamed %d rows, not those of its snapshot", len(got))
				}
				if st := db.MVCCStats(); st.ActiveSnapshots != 0 {
					t.Fatalf("%d snapshots still registered", st.ActiveSnapshots)
				}

				rows, err := eachRows(eachS, q)
				if tc.next == "" {
					if err == nil || !strings.Contains(err.Error(), "no such table") {
						t.Fatalf("next execution = %d rows, %v; want no such table", len(rows), err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if p := s.prep.Load(); p.gen != db.gen.Load() {
					t.Fatalf("the next execution ran a plan of schema generation %d, want %d", p.gen, db.gen.Load())
				}
				if fmt.Sprint(rows) != want[tc.next] {
					t.Fatalf("next execution returned %d rows, want the %s rows", len(rows), tc.next)
				}
				if tc.check != nil {
					tc.check(t, db)
				}
			})
		}
	}
}

func execDDL(sql string) func(*DB, string) error {
	return func(db *DB, _ string) error {
		_, err := db.Exec(sql)
		return err
	}
}

func wantPlanMentions(t *testing.T, db *DB, q, index string, want bool) {
	t.Helper()
	plan, err := db.Explain(q, "text")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, index) != want {
		t.Fatalf("plan of %q mentions %s: %v, want %v:\n%s", q, index, !want, want, plan)
	}
}
