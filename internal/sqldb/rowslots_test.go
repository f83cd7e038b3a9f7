package sqldb

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

const rowChunkSize = 1 << rowSlotBits

// chunkCount returns how many row chunks a table holds. The chunk list is
// published atomically, so it takes no lock.
func chunkCount(db *DB, table string) int {
	return len(db.table(table).chunkList())
}

// insertMapping inserts n object_rel rows of one source_rel_id, the way
// gam stores one mapping, 200 rows per statement.
func insertMapping(t *testing.T, db interface {
	Exec(string, ...any) (Result, error)
}, rel, n int) {
	t.Helper()
	for done := 0; done < n; done += 200 {
		k := min(200, n-done)
		args := make([]any, 0, 5*k)
		for i := 0; i < k; i++ {
			args = append(args, rel, done+i, i%7, nil, fmt.Sprintf("m%d-%d", rel, done+i))
		}
		if _, err := db.Exec(multiRowSQL(objectRelInsert+"(?, ?, ?, ?, ?)", k), args...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowSlotsChurn replaces 2 000-row mappings over and over, as
// ReplaceMapping does, with a vacuum between rounds: the chunks of the
// deleted rows are handed back, so the chunk count follows the live rows,
// not the highest row ID. A rolled-back insert hands its chunks back too.
func TestRowSlotsChurn(t *testing.T) {
	db := NewDB()
	defer db.Close()
	db.setVacuumInterval(time.Hour)
	for _, ddl := range objectRelDDL {
		mustExec(t, db, ddl)
	}
	const batch, kept = 2000, 5
	for rel := 0; rel < kept; rel++ {
		insertMapping(t, db, rel, batch)
	}
	for rel := kept; rel < kept+12; rel++ {
		mustExec(t, db, "DELETE FROM object_rel WHERE source_rel_id = ?", rel-kept)
		insertMapping(t, db, rel, batch)
		db.Vacuum()
		live := int(db.table("object_rel").live.Load())
		if live != kept*batch {
			t.Fatalf("round %d: %d live rows, want %d", rel, live, kept*batch)
		}
		if n, bound := chunkCount(db, "object_rel"), live/rowChunkSize+2; n > bound {
			t.Fatalf("round %d: %d chunks for %d live rows, want at most %d", rel, n, live, bound)
		}
	}

	before := chunkCount(db, "object_rel")
	tx := db.Begin()
	insertMapping(t, tx, 99, 3*rowChunkSize)
	if chunkCount(db, "object_rel") <= before {
		t.Fatal("an insert past the last chunk added no chunk")
	}
	tx.Rollback()
	if n := chunkCount(db, "object_rel"); n != before {
		t.Fatalf("rolled-back insert left %d chunks, want %d", n, before)
	}

	mustExec(t, db, "DELETE FROM object_rel")
	db.Vacuum()
	if n := chunkCount(db, "object_rel"); n != 0 {
		t.Fatalf("empty table keeps %d chunks", n)
	}
}

// A row chunk is its slots and nothing else, 8 KiB: its key lives in the
// chunk list and the occupied-slot counts with the writer. (The allocator
// still prepends an 8-byte type header to a pointerful object of this
// size, so the allocation stays in the 9 472-byte size class.)
func TestRowSlotsChunkIsEightKiB(t *testing.T) {
	if got := unsafe.Sizeof(rowChunk{}); got != 8<<10 {
		t.Fatalf("rowChunk is %d bytes, want %d", got, 8<<10)
	}
}

// TestRowSlotsScanBesideChunkChanges opens a cursor and a QueryEach, then
// inserts rows that add chunks and vacuums a chunk whose rows were
// deleted before the snapshot, first while the scan waits and then while
// it runs. Each scan returns exactly its snapshot's rows, once each, in
// row-ID order.
func TestRowSlotsScanBesideChunkChanges(t *testing.T) {
	setup := func(t *testing.T) (*DB, []int64) {
		db := NewDB()
		db.setVacuumInterval(time.Hour)
		mustExec(t, db, "CREATE TABLE s (v INTEGER)")
		tx := db.Begin()
		for id := 1; id <= 3*rowChunkSize; id++ {
			if _, err := tx.Exec("INSERT INTO s VALUES (?)", id); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Empty the second chunk; its tombstones wait for a vacuum.
		mustExec(t, db, "DELETE FROM s WHERE v >= ? AND v < ?", rowChunkSize, 2*rowChunkSize)
		var want []int64
		for id := int64(1); id <= 3*rowChunkSize; id++ {
			if id < rowChunkSize || id >= 2*rowChunkSize {
				want = append(want, id)
			}
		}
		return db, want
	}
	// change waits for an insert that adds chunks and a vacuum that drops
	// the emptied one, then starts a second insert that runs beside the
	// rest of the scan; the returned channel closes when it is done.
	change := func(t *testing.T, db *DB) chan struct{} {
		before := chunkCount(db, "s")
		for v := 0; v < 2*rowChunkSize; v += 256 {
			args := make([]any, 256)
			for i := range args {
				args[i] = 10000 + v + i
			}
			mustExec(t, db, multiRowSQL("INSERT INTO s VALUES (?)", len(args)), args...)
		}
		db.Vacuum()
		if n := chunkCount(db, "s"); n != before-1+2 {
			t.Errorf("chunks %d -> %d, want one dropped and two added", before, n)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 3*rowChunkSize; i += 100 {
				mustExecErrOK(db, "INSERT INTO s VALUES (?)", 20000+i)
			}
		}()
		return done
	}
	check := func(t *testing.T, got, want []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d is %d, want %d", i, got[i], want[i])
			}
		}
	}

	t.Run("cursor", func(t *testing.T) {
		db, want := setup(t)
		defer db.Close()
		cur, err := db.QueryCursor("SELECT v FROM s")
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var got []int64
		var done chan struct{}
		for {
			row, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if row == nil || len(got) > len(want) {
				break
			}
			got = append(got, row[0].(int64))
			if len(got) == 10 {
				done = change(t, db)
			}
		}
		<-done
		check(t, got, want)
	})

	t.Run("each", func(t *testing.T) {
		db, want := setup(t)
		defer db.Close()
		var got []int64
		var done chan struct{}
		err := db.QueryEach("SELECT v FROM s", func(row []Value) error {
			if len(got) > len(want) {
				return errors.New("more rows than the snapshot holds")
			}
			got = append(got, row[0].(int64))
			if len(got) == 10 {
				done = change(t, db)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		<-done
		check(t, got, want)
	})
}
