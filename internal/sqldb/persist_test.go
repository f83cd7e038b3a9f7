package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")

	db := NewDB()
	mustExec(t, db, `CREATE TABLE src (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, weight REAL, active BOOLEAN, note TEXT)`)
	mustExec(t, db, "CREATE INDEX idx_name ON src (name)")
	mustExec(t, db, "CREATE INDEX idx_weight ON src (weight) USING BTREE")
	mustExec(t, db, "INSERT INTO src (name, weight, active, note) VALUES ('a', 1.5, TRUE, NULL)")
	mustExec(t, db, "INSERT INTO src (name, weight, active, note) VALUES ('b', -2.25, FALSE, 'hello')")
	mustExec(t, db, "INSERT INTO src (name, weight, active, note) VALUES ('c', NULL, NULL, 'x')")

	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	rs := mustQuery(t, loaded, "SELECT id, name, weight, active, note FROM src ORDER BY id")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rs.Rows))
	}
	if rs.Rows[0][1] != "a" || rs.Rows[0][2] != 1.5 || rs.Rows[0][3] != true || rs.Rows[0][4] != nil {
		t.Errorf("row 0 = %v", rs.Rows[0])
	}
	if rs.Rows[1][2] != -2.25 || rs.Rows[1][3] != false {
		t.Errorf("row 1 = %v", rs.Rows[1])
	}

	// Indexes work after load.
	rs = mustQuery(t, loaded, "SELECT id FROM src WHERE name = 'b'")
	if len(rs.Rows) != 1 || rs.Rows[0][0] != int64(2) {
		t.Fatalf("index lookup after load = %v", rs.Rows)
	}

	// AUTOINCREMENT sequence resumes.
	res, err := loaded.Exec("INSERT INTO src (name) VALUES ('d')")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 4 {
		t.Errorf("sequence after load = %d, want 4", res.LastInsertID)
	}

	// Unique constraint still enforced after load.
	if _, err := loaded.Exec("INSERT INTO src (id, name) VALUES (1, 'dup')"); err == nil {
		t.Fatal("primary key uniqueness lost after load")
	}
}

// Save and Dump wait for an open transaction and record exactly the
// committed state. Each is started beside a transaction that inserts into
// an AUTOINCREMENT table; after the transaction rolls back (or commits),
// the dump and the loaded snapshot equal the live dump, and the next
// INSERT draws the same id on the live and the restored database. Taken
// between two statements of the open transaction, they would record its
// row and sequence counters without its rows.
func TestSaveAndDumpBesideOpenTx(t *testing.T) {
	for _, commit := range []bool{false, true} {
		name := "rollback"
		if commit {
			name = "commit"
		}
		t.Run(name, func(t *testing.T) {
			db := NewDB()
			defer db.Close()
			mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT)")
			mustExec(t, db, "INSERT INTO t (v) VALUES ('committed')")
			tx := db.Begin()
			if _, err := tx.Exec("INSERT INTO t (v) VALUES ('a'), ('b')"); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "db.snap")
			saved := make(chan error, 1)
			dumped := make(chan string, 1)
			go func() { saved <- db.Save(path) }()
			go func() { dumped <- db.DumpString() }()
			time.Sleep(20 * time.Millisecond) // both are waiting, or ran inside the transaction
			if _, err := tx.Exec("INSERT INTO t (v) VALUES ('c')"); err != nil {
				t.Fatal(err)
			}
			if commit {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			} else if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := <-saved; err != nil {
				t.Fatal(err)
			}
			dump := <-dumped
			live := db.DumpString()
			if dump != live {
				t.Errorf("Dump beside the open transaction:\n%s\nwant the live dump:\n%s", dump, live)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if got := loaded.DumpString(); got != live {
				t.Errorf("snapshot saved beside the open transaction loads as:\n%s\nwant the live dump:\n%s", got, live)
			}
			want := mustExec(t, db, "INSERT INTO t (v) VALUES ('next')").LastInsertID
			if got := mustExec(t, loaded, "INSERT INTO t (v) VALUES ('next')").LastInsertID; got != want {
				t.Errorf("restored database hands out id %d, live one %d", got, want)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("expected error for missing snapshot")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, []byte("this is not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("expected error for corrupt snapshot")
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (n INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, loaded, "SELECT COUNT(*) FROM t")
	if rs.Rows[0][0] != int64(2) {
		t.Fatalf("count = %v, want 2", rs.Rows[0][0])
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
}

func TestSaveEmptyDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.snap")
	db := NewDB()
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(loaded.TableNames()); n != 0 {
		t.Fatalf("empty snapshot loaded %d tables", n)
	}
}

// Restoring a snapshot must invalidate statement plans compiled against
// the pre-restore schema. Before the schema-generation bump on load, a
// cached plan kept pointing at the replaced *Table and served pre-restore
// rows.
func TestRestoreInvalidatesCachedPlans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")

	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	// Diverge from the snapshot and warm the plan cache on the diverged
	// state.
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	const q = "SELECT a FROM t ORDER BY a"
	rs := mustQuery(t, db, q)
	if rs.Len() != 2 {
		t.Fatalf("pre-restore rows = %d, want 2", rs.Len())
	}

	if err := db.Restore(path); err != nil {
		t.Fatal(err)
	}
	rs = mustQuery(t, db, q)
	if rs.Len() != 1 || rs.Rows[0][0] != int64(1) {
		t.Fatalf("post-restore rows = %v, want just [1] (stale plan served the replaced table?)", rs.Rows)
	}
}

// A freshly loaded database must not sit at the zero schema generation a
// brand-new DB starts from: gen 0 would let compiled forms prepared against
// an empty pre-load state pass the generation check.
func TestLoadBumpsSchemaGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.gen.Load() == 0 {
		t.Fatal("loaded database still at schema generation 0")
	}
}

// encodeTableSnapshot gob-encodes a one-table snapshot the way Save does.
func encodeTableSnapshot(t testing.TB, ts tableSnapshot) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snapshot{Version: snapshotVersion, Tables: []tableSnapshot{ts}}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// loaderTable is a two-column table snapshot with one row per ID.
func loaderTable(nextRow int64, ids []int64, rows int) tableSnapshot {
	ts := tableSnapshot{
		Name:    "t",
		Columns: []Column{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeText}},
		NextRow: nextRow,
		RowIDs:  ids,
		Indexes: []indexSnapshot{{Name: "idx_k", Column: "k", Kind: IndexHash}},
	}
	for i := 0; i < rows; i++ {
		ts.Rows = append(ts.Rows, []Value{int64(i), fmt.Sprintf("r%d", i)})
	}
	return ts
}

// TestLoadRejectsMalformedRowIDs: Save writes row IDs strictly ascending,
// each in [1, NextRow], one per row, and the loader accepts nothing else.
// A repeated ID would load one row over the other, an ID past NextRow
// would be handed out again by the next INSERT, and more IDs than rows
// used to index past the rows.
func TestLoadRejectsMalformedRowIDs(t *testing.T) {
	for _, c := range []struct {
		name    string
		nextRow int64
		ids     []int64
		rows    int
	}{
		{"duplicate", 2, []int64{1, 1}, 2},
		{"past next row", 0, []int64{1}, 1},
		{"more ids than rows", 3, []int64{1, 2, 3}, 2},
		{"more rows than ids", 3, []int64{1, 2}, 3},
		{"descending", 2, []int64{2, 1}, 2},
		{"zero", 2, []int64{0, 1}, 2},
		{"negative next row", -1, nil, 0},
		{"no row ID left", math.MaxInt64, []int64{1}, 1},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "_"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.snap")
			buf := encodeTableSnapshot(t, loaderTable(c.nextRow, c.ids, c.rows))
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Load(path)
			if err == nil {
				defer db.Close()
				t.Fatalf("loaded row IDs %v with next row ID %d:\n%s", c.ids, c.nextRow, db.DumpString())
			}
			if !strings.HasPrefix(err.Error(), "sqldb: load: table t ") {
				t.Fatalf("error %q does not name the table", err)
			}
		})
	}
}

// FuzzSnapshotLoad builds a table snapshot from a fuzzed next row ID, row
// IDs (varint deltas from 0) and row count, encodes it as Save does and
// decodes it. The loader never panics; a table it accepts scans each of
// its IDs once, ascending and at most NextRow; a re-save reproduces the
// same Dump; and the next INSERT takes a fresh row ID.
func FuzzSnapshotLoad(f *testing.F) {
	deltas := func(ds ...int64) []byte {
		var b []byte
		for _, d := range ds {
			b = binary.AppendVarint(b, d)
		}
		return b
	}
	f.Add(int64(3), deltas(1, 1, 1), uint8(3))
	f.Add(int64(5000), deltas(1, 2000, 1500), uint8(3))
	f.Add(int64(2), deltas(1, 0), uint8(2))
	f.Add(int64(0), deltas(1), uint8(1))
	f.Add(int64(3), deltas(1, 1, 1), uint8(2))
	f.Add(int64(2), deltas(2, -1), uint8(2))
	f.Add(int64(math.MaxInt64-1), deltas(1, math.MaxInt64-3), uint8(2))
	f.Add(int64(math.MaxInt64-2), deltas(math.MaxInt64-2), uint8(1))
	f.Fuzz(func(t *testing.T, nextRow int64, idBytes []byte, rows uint8) {
		var ids []int64
		prev := int64(0)
		for len(idBytes) > 0 {
			d, n := binary.Varint(idBytes)
			if n <= 0 {
				break
			}
			idBytes = idBytes[n:]
			prev += d
			ids = append(ids, prev)
		}
		tables, err := decodeTables(encodeTableSnapshot(t, loaderTable(nextRow, ids, int(rows))))
		if err != nil {
			return
		}
		var got []int64
		tables["t"].Scan(func(id int64, _ []Value) bool {
			if id > nextRow || len(got) > 0 && id <= got[len(got)-1] {
				t.Fatalf("scan emits %d after %v (next row ID %d)", id, got, nextRow)
			}
			got = append(got, id)
			return true
		})
		if len(got) != len(ids) {
			t.Fatalf("loaded %d rows from %d row IDs", len(got), len(ids))
		}

		db := NewDB()
		defer db.Close()
		db.storeTables(tables)
		dump := db.DumpString()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(db.buildSnapshot()); err != nil {
			t.Fatal(err)
		}
		again, err := decodeTables(&buf)
		if err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		db2 := NewDB()
		defer db2.Close()
		db2.storeTables(again)
		if d := db2.DumpString(); d != dump {
			t.Fatalf("re-saved dump differs:\n%s\nwant\n%s", d, dump)
		}

		_, err = db.Exec("INSERT INTO t VALUES (-1, 'new')")
		if nextRow == math.MaxInt64-1 {
			if err == nil {
				t.Fatal("an INSERT took row ID MaxInt64")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := db.table("t").RowCount(); n != len(ids)+1 {
			t.Fatalf("an INSERT after load leaves %d rows, want %d", n, len(ids)+1)
		}
		scanned := 0
		if err := db.QueryEach("SELECT k FROM t", func([]Value) error { scanned++; return nil }); err != nil || scanned != len(ids)+1 {
			t.Fatalf("a full scan after the INSERT returns %d rows (%v), want %d", scanned, err, len(ids)+1)
		}
	})
}
