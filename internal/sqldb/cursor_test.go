package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func cursorTestDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)")
	mustExec(t, db, "CREATE INDEX idx_c_k ON c (k) USING BTREE")
	for i := 0; i < rows; i++ {
		mustExec(t, db, "INSERT INTO c VALUES (?, ?, ?)", i, i%7, fmt.Sprintf("s%04d", i))
	}
	return db
}

// drainCursor copies every row out of a cursor (Next reuses its buffer).
func drainCursor(cur Cursor) ([][]Value, error) {
	var out [][]Value
	for {
		row, err := cur.Next()
		if err != nil {
			return out, err
		}
		if row == nil {
			return out, nil
		}
		cp := make([]Value, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
}

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
	} {
		want := mustQuery(t, db, q)
		cur, err := db.QueryCursor(q)
		if err != nil {
			t.Fatalf("%s: open: %v", q, err)
		}
		if fmt.Sprint(cur.Columns()) != fmt.Sprint(want.Columns) {
			t.Fatalf("%s: columns %v, want %v", q, cur.Columns(), want.Columns)
		}
		got, err := drainCursor(cur)
		if err != nil {
			t.Fatalf("%s: drain: %v", q, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s:\ncursor %v\nquery  %v", q, got, want.Rows)
		}
		cur.Close()
	}
}

func TestCursorExhaustionIsSticky(t *testing.T) {
	db := cursorTestDB(t, 3)
	cur, err := db.QueryCursor("SELECT id FROM c")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
	// Further Next calls keep reporting exhaustion, not rows or errors.
	for i := 0; i < 3; i++ {
		row, err := cur.Next()
		if row != nil || err != nil {
			t.Fatalf("Next after exhaustion = %v, %v", row, err)
		}
	}
}

func TestCursorEarlyClose(t *testing.T) {
	db := cursorTestDB(t, 100)
	cur, err := db.QueryCursor("SELECT id FROM c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if _, err := cur.Next(); err == nil {
		t.Fatal("Next after Close succeeded")
	}
	// A closed cursor must not pin the database: writes proceed.
	mustExec(t, db, "INSERT INTO c VALUES (1000, 0, 'late')")
}

func TestCursorInvalidatedByDDL(t *testing.T) {
	db := cursorTestDB(t, 50)
	for _, ddl := range []string{
		"CREATE INDEX idx_late ON c (s)",
		"DROP INDEX idx_late",
		"CREATE TABLE other (x INTEGER)",
		"DROP TABLE other",
	} {
		cur, err := db.QueryCursor("SELECT id FROM c")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, ddl)
		if _, err := cur.Next(); !errors.Is(err, ErrCursorInvalidated) {
			t.Fatalf("after %q: Next = %v, want ErrCursorInvalidated", ddl, err)
		}
		cur.Close()
	}
}

func TestCursorInvalidatedBeforeFirstNext(t *testing.T) {
	db := cursorTestDB(t, 10)
	cur, err := db.QueryCursor("SELECT id FROM c")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	mustExec(t, db, "CREATE TABLE zz (x INTEGER)")
	if _, err := cur.Next(); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("Next = %v, want ErrCursorInvalidated", err)
	}
}

func TestCursorSurvivesDML(t *testing.T) {
	db := cursorTestDB(t, 100)
	cur, err := db.QueryCursor("SELECT id FROM c")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		row, err := cur.Next()
		if err != nil || row == nil {
			t.Fatalf("step %d: %v, %v", i, row, err)
		}
		seen[row[0].(int64)] = true
	}
	// DML between steps must not invalidate the cursor — only DDL does —
	// and must never make it re-emit a row.
	mustExec(t, db, "DELETE FROM c WHERE id >= 50 AND id < 70")
	mustExec(t, db, "INSERT INTO c VALUES (2000, 1, 'new')")
	mustExec(t, db, "UPDATE c SET s = 'upd' WHERE id < 5")
	for {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("Next after DML: %v", err)
		}
		if row == nil {
			break
		}
		id := row[0].(int64)
		if seen[id] {
			t.Fatalf("row %d emitted twice", id)
		}
		seen[id] = true
		if id >= 50 && id < 70 {
			t.Fatalf("deleted row %d emitted after DELETE", id)
		}
	}
	if !seen[2000] {
		t.Fatal("row inserted during iteration (higher row ID) not observed")
	}
}

func TestCursorQueryCursorRejectsNonSelect(t *testing.T) {
	db := cursorTestDB(t, 1)
	if _, err := db.QueryCursor("INSERT INTO c VALUES (900, 0, 'x')"); err == nil {
		t.Fatal("QueryCursor accepted INSERT")
	}
}

func TestTxQueryCursorSeesOwnWrites(t *testing.T) {
	db := cursorTestDB(t, 5)
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO c VALUES (500, 0, 'tx')"); err != nil {
		t.Fatal(err)
	}
	cur, err := tx.QueryCursor("SELECT id FROM c WHERE id = 500")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainCursor(cur)
	cur.Close()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, err = %v; want the uncommitted row", rows, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// Tx.QueryEach reads with the transaction's visibility in both modes: its
// own uncommitted insert and update are there, its delete is not, and a
// plain reader sees none of it under MVCC.
func TestTxQueryEachSeesOwnWrites(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		db := cursorTestDB(t, 5)
		db.SetMVCC(mvcc)
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
			t.Fatalf("mvcc=%v: transaction reads %v, want its own insert, update and delete", mvcc, got)
		}
		if mvcc {
			if rs := mustQuery(t, db, "SELECT id FROM c WHERE id = 500 OR s = 'mine'"); len(rs.Rows) != 0 {
				t.Fatalf("uncommitted writes visible outside the transaction: %v", rs.Rows)
			}
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := tx.QueryEach("SELECT id FROM c", func([]Value) error { return nil }); err == nil {
			t.Fatal("QueryEach on a finished transaction succeeded")
		}
		db.Close()
	}
}

// TestCursorConcurrentWriters iterates cursors while writer goroutines
// hammer the same table. Run under -race this proves per-step locking is
// sound; the assertions prove rows stay well-formed and IDs never repeat.
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
			cur, err := db.QueryCursor(q)
			if err != nil {
				t.Fatal(err)
			}
			// Scans walk ascending internal row IDs, so no row — however
			// the writers interleave — may ever be emitted twice.
			fullScan := q == "SELECT id, k, s FROM c"
			seen := make(map[int64]bool)
			for {
				row, err := cur.Next()
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if row == nil {
					break
				}
				id, ok := row[0].(int64)
				if !ok {
					t.Fatalf("%s: malformed id %v", q, row[0])
				}
				if fullScan {
					if seen[id] {
						t.Fatalf("%s: row %d emitted twice", q, id)
					}
					seen[id] = true
				}
			}
			cur.Close()
		}
	}
	stop.Store(true)
	wg.Wait()
}
