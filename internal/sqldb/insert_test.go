package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// objectRelDDL is the shape of gam's OBJECT_REL: an AUTOINCREMENT primary
// key, three secondary hash indexes, a nullable evidence. The unique index
// on tag is what the violation legs collide on.
var objectRelDDL = []string{
	`CREATE TABLE object_rel (
		object_rel_id INTEGER PRIMARY KEY AUTOINCREMENT,
		source_rel_id INTEGER NOT NULL,
		object1_id INTEGER NOT NULL,
		object2_id INTEGER NOT NULL,
		evidence REAL,
		tag TEXT
	)`,
	`CREATE INDEX idx_objrel_rel ON object_rel (source_rel_id)`,
	`CREATE INDEX idx_objrel_o1 ON object_rel (object1_id)`,
	`CREATE INDEX idx_objrel_o2 ON object_rel (object2_id)`,
	`CREATE UNIQUE INDEX idx_objrel_tag ON object_rel (tag)`,
}

const objectRelInsert = "INSERT INTO object_rel (source_rel_id, object1_id, object2_id, evidence, tag) VALUES "

// multiRowSQL widens a one-row INSERT text to n value groups.
func multiRowSQL(oneRow string, n int) string {
	group := oneRow[strings.LastIndex(oneRow, "("):]
	return oneRow + strings.Repeat(", "+group, n-1)
}

// objectRelRows renders an n-row INSERT and its arguments. source_rel_id is
// constant (one run in its index), object1_id repeats in runs of three, every
// third evidence is NULL (an unset fact, not an asserted 0), tags are unique.
func objectRelRows(n int, tagPrefix string) (string, []any) {
	args := make([]any, 0, 5*n)
	for i := 0; i < n; i++ {
		var ev any
		if i%3 != 0 {
			ev = float64(i%10) / 10
		}
		args = append(args, 7, 100+i/3, 1000+i, ev, fmt.Sprintf("%s%d", tagPrefix, i))
	}
	return multiRowSQL(objectRelInsert+"(?, ?, ?, ?, ?)", n), args
}

// insertModes runs fn on a fresh object_rel database, once "plain" and
// once "pinned": beside a snapshot that predates every row. A read at that
// snapshot must still count an empty table when fn is done.
func insertModes(t *testing.T, fn func(t *testing.T, db *DB)) {
	for _, pinned := range []bool{false, true} {
		name := "plain"
		if pinned {
			name = "pinned"
		}
		t.Run(name, func(t *testing.T) {
			db := NewDB()
			defer db.Close()
			for _, ddl := range objectRelDDL {
				mustExec(t, db, ddl)
			}
			if !pinned {
				fn(t, db)
				return
			}
			pin := pinSnapshot(db)
			defer pin.release()
			fn(t, db)
			if n := pin.query(t, "SELECT COUNT(*) FROM object_rel").Rows[0][0]; n != int64(0) {
				t.Fatalf("a snapshot older than every row sees %v rows", n)
			}
		})
	}
}

// tableState is everything a failed or rolled-back INSERT must leave as it
// found it: the dump (rows and both counters), every index's entry count
// and the row slots (chunks, live rows, occupied slots). It takes no lock:
// the caller runs alone or inside its own transaction, which holds the
// writer already.
func tableState(db *DB, table string) string {
	var sb strings.Builder
	if err := db.dumpLocked(&sb); err != nil {
		panic(err)
	}
	t := db.table(table)
	for _, idx := range t.Indexes() {
		fmt.Fprintf(&sb, "index %s: %d entries, %d NULL\n", idx.Name, idx.Len(), len(idx.NullRowIDs()))
	}
	heads := 0
	t.eachHead(0, func(int64, *rowVersion) bool { heads++; return true })
	fmt.Fprintf(&sb, "chunks: %d, live %d, heads %d", len(t.chunkList()), t.live.Load(), heads)
	return sb.String()
}

// TestMultiRowInsertEqualsSingleRows: an N-row INSERT is the same
// transition as N one-row INSERTs in one transaction — same rows under the
// same row IDs and AUTOINCREMENT values, same counters, same results —
// around the 200-row chunk size.
func TestMultiRowInsertEqualsSingleRows(t *testing.T) {
	for _, n := range []int{1, 2, 199, 200, 201} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var dumps []string
			insertModes(t, func(t *testing.T, db *DB) {
				mustExec(t, db, objectRelInsert+"(?, ?, ?, ?, ?)", 1, 1, 1, 0.5, "committed")

				// Reference: the same rows one statement at a time.
				ref := NewDB()
				defer ref.Close()
				for _, ddl := range objectRelDDL {
					mustExec(t, ref, ddl)
				}
				mustExec(t, ref, objectRelInsert+"(?, ?, ?, ?, ?)", 1, 1, 1, 0.5, "committed")
				sql, args := objectRelRows(n, "t")
				rtx := ref.Begin()
				var last Result
				for i := 0; i < n; i++ {
					res, err := rtx.Exec(objectRelInsert+"(?, ?, ?, ?, ?)", args[5*i:5*i+5]...)
					if err != nil {
						t.Fatal(err)
					}
					last = res
				}
				if err := rtx.Commit(); err != nil {
					t.Fatal(err)
				}

				tx := db.Begin()
				res, err := tx.Exec(sql, args...)
				if err != nil {
					t.Fatal(err)
				}
				if res.RowsAffected != int64(n) || res.LastInsertID != last.LastInsertID {
					t.Errorf("result = %+v, want RowsAffected %d and the last single-row LastInsertID %d", res, n, last.LastInsertID)
				}
				// Provisional until the commit publishes them.
				if got := mustQuery(t, db, "SELECT COUNT(*) FROM object_rel").Rows[0][0]; got != int64(1) {
					t.Errorf("rows visible outside the open transaction: %v, want 1", got)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if got, want := tableState(db, "object_rel"), tableState(ref, "object_rel"); got != want {
					t.Fatalf("multi-row state differs from single-row state:\n--- multi\n%s\n--- single\n%s", got, want)
				}
				// Unset evidence is NULL, never an asserted 0.
				nulls := mustQuery(t, db, "SELECT COUNT(*) FROM object_rel WHERE evidence IS NULL").Rows[0][0]
				if want := int64((n + 2) / 3); nulls != want {
					t.Errorf("NULL evidence rows = %v, want %d", nulls, want)
				}
				// The equal-key run and the distinct keys are both findable.
				if got := mustQuery(t, db, "SELECT COUNT(*) FROM object_rel WHERE source_rel_id = 7").Rows[0][0]; got != int64(n) {
					t.Errorf("rows under the constant source_rel_id = %v, want %d", got, n)
				}
				if got := mustQuery(t, db, "SELECT tag FROM object_rel WHERE object2_id = ?", 1000+n-1).Rows; len(got) != 1 || got[0][0] != fmt.Sprintf("t%d", n-1) {
					t.Errorf("last row by object2_id = %v", got)
				}
				dumps = append(dumps, db.DumpString())
			})
			// Dump bytes do not depend on a pinned reader.
			for i := 1; i < len(dumps); i++ {
				if dumps[i] != dumps[0] {
					t.Errorf("dump of combination %d differs from combination 0", i)
				}
			}
		})
	}
}

// TestMultiRowInsertUniqueViolation: a UNIQUE violation in row k — against
// a committed row, or against an earlier row of the same statement — fails
// the whole statement, leaves no row, no index entry and no burnt row ID or
// AUTOINCREMENT value, and the transaction carries on.
func TestMultiRowInsertUniqueViolation(t *testing.T) {
	const n, k = 50, 37
	cases := []struct {
		name  string
		dupOf string // the tag row k repeats
	}{
		{"committed row", "committed"},
		{"earlier row of the statement", "t5"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			insertModes(t, func(t *testing.T, db *DB) {
				mustExec(t, db, objectRelInsert+"(?, ?, ?, ?, ?)", 1, 1, 1, 0.5, "committed")
				tx := db.Begin()
				if _, err := tx.Exec(objectRelInsert+"(?, ?, ?, ?, ?)", 2, 2, 2, nil, "first"); err != nil {
					t.Fatal(err)
				}
				before := tableState(db, "object_rel")

				sql, args := objectRelRows(n, "t")
				args[5*k+4] = c.dupOf
				_, err := tx.Exec(sql, args...)
				var ue *UniqueError
				if !errors.As(err, &ue) || ue.Column != "tag" || ue.Value != c.dupOf {
					t.Fatalf("error = %v, want a UNIQUE violation on tag = %q", err, c.dupOf)
				}
				if after := tableState(db, "object_rel"); after != before {
					t.Fatalf("failed statement left something behind:\n--- before\n%s\n--- after\n%s", before, after)
				}

				// The transaction continues and the next row takes the very
				// next row ID and AUTOINCREMENT value.
				res, err := tx.Exec(objectRelInsert+"(?, ?, ?, ?, ?)", 3, 3, 3, 0.25, "after")
				if err != nil {
					t.Fatal(err)
				}
				if res.LastInsertID != 3 {
					t.Errorf("LastInsertID after the failed statement = %d, want 3", res.LastInsertID)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				rs := mustQuery(t, db, "SELECT object_rel_id, tag FROM object_rel ORDER BY object_rel_id")
				if got := fmt.Sprint(rs.Rows); got != "[[1 committed] [2 first] [3 after]]" {
					t.Errorf("rows = %s", got)
				}
			})
		})
	}
}

// TestInsertFailureBurnsNoSequence: a statement whose first row draws an
// AUTOINCREMENT value and then fails leaves the counter where it was — a
// live database must dump like one recovered from a log that never saw the
// statement.
func TestInsertFailureBurnsNoSequence(t *testing.T) {
	insertModes(t, func(t *testing.T, db *DB) {
		mustExec(t, db, objectRelInsert+"(?, ?, ?, ?, ?)", 1, 1, 1, nil, "a")
		before := tableState(db, "object_rel")
		if _, err := db.Exec(objectRelInsert+"(?, ?, ?, ?, ?)", 1, 1, 1, nil, "a"); err == nil {
			t.Fatal("duplicate tag accepted")
		}
		if _, err := db.Exec(objectRelInsert+"(?, ?, ?, ?, ?)", 1, nil, 1, nil, "b"); err == nil {
			t.Fatal("NULL in a NOT NULL column accepted")
		}
		if after := tableState(db, "object_rel"); after != before {
			t.Fatalf("failed statements moved the table:\n--- before\n%s\n--- after\n%s", before, after)
		}
	})
}

// Len returns the number of non-NULL entries in the index.
func (idx *Index) Len() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if idx.Kind == IndexHash {
		n := 0
		for _, rows := range idx.hash {
			n += len(rows)
		}
		return n
	}
	return idx.tree.Len()
}
