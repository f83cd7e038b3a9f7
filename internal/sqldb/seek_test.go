package sqldb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSeekBesideWritersAndVacuum runs Seek readers beside a writer that
// moves rows between keys of the indexed column, deletes and re-inserts
// them, and beside a vacuumer on a 1 ms tick. Every transaction keeps the
// table at seekRows rows over keys 0…9, so one Seek over all ten keys (one
// snapshot) must see exactly seekRows rows, each once, each under the key
// its column holds, each key's rows in ascending row order. Inside the
// writer's transaction, Tx.Seek sees the moved row under its new key only.
func TestSeekBesideWritersAndVacuum(t *testing.T) {
	for _, kind := range []string{"HASH", "BTREE"} {
		t.Run(kind, func(t *testing.T) { runSeekBesideWriters(t, kind) })
	}
}

const seekRows = 200

func runSeekBesideWriters(t *testing.T, kind string) {
	db := NewDB()
	db.setVacuumInterval(time.Millisecond)
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, k INTEGER, v INTEGER)")
	mustExec(t, db, "CREATE INDEX idx_t_k ON t (k) USING "+kind)
	for i := 0; i < seekRows; i++ {
		mustExec(t, db, "INSERT INTO t (k, v) VALUES (?, ?)", int64(i%10), int64(i))
	}
	keys := make([]Value, 10)
	for i := range keys {
		keys[i] = int64(i)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; !stop.Load(); i++ {
			if err := seekWriterTx(db, rng); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := checkSeekSnapshot(db, keys); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := checkSeekSnapshot(db, keys); err != nil {
		t.Fatal(err)
	}
}

// seekWriterTx moves one row to another key, checking Tx.Seek sees the
// move, and deletes one row and inserts its replacement.
func seekWriterTx(db *DB, rng *rand.Rand) error {
	tx := db.Begin()
	defer tx.Rollback()
	var ids []int64
	if err := tx.QueryEach("SELECT id FROM t", func(row []Value) error {
		ids = append(ids, row[0].(int64))
		return nil
	}); err != nil {
		return err
	}
	id, to := ids[rng.Intn(len(ids))], int64(rng.Intn(10))
	if _, err := tx.Exec("UPDATE t SET k = ? WHERE id = ?", to, id); err != nil {
		return err
	}
	found := false
	err := tx.Seek("t", 1, []Value{int64(0), int64(1), int64(2), int64(3), int64(4), int64(5), int64(6), int64(7), int64(8), int64(9)},
		func(k, _ int, row []Value) error {
			if row[0].(int64) == id {
				if found || int64(k) != to {
					return fmt.Errorf("Tx.Seek: row %d under key %d after moving it to %d (seen before: %v)", id, k, to, found)
				}
				found = true
			}
			return nil
		})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("Tx.Seek: moved row %d not found under key %d", id, to)
	}
	del := ids[rng.Intn(len(ids))]
	if _, err := tx.Exec("DELETE FROM t WHERE id = ?", del); err != nil {
		return err
	}
	if _, err := tx.Exec("INSERT INTO t (k, v) VALUES (?, ?)", int64(rng.Intn(10)), del); err != nil {
		return err
	}
	return tx.Commit()
}

// checkSeekSnapshot seeks every key at one snapshot and checks what it
// sees is one consistent table state.
func checkSeekSnapshot(db *DB, keys []Value) error {
	seen := make(map[int64]bool)
	last := make([]int64, len(keys))
	err := db.Seek("t", 1, keys, func(k, n int, row []Value) error {
		id := row[0].(int64)
		switch {
		case Compare(row[1], keys[k]) != 0:
			return fmt.Errorf("row %d with k = %v yielded under key %v", id, row[1], keys[k])
		case seen[id]:
			return fmt.Errorf("row %d yielded twice", id)
		case id <= last[k]:
			return fmt.Errorf("key %v: row %d after row %d", keys[k], id, last[k])
		case n < 1:
			return fmt.Errorf("key %v: %d postings for a row", keys[k], n)
		}
		seen[id], last[k] = true, id
		return nil
	})
	if err != nil {
		return err
	}
	if len(seen) != seekRows {
		return fmt.Errorf("one snapshot saw %d rows, want %d", len(seen), seekRows)
	}
	return nil
}

// A seek of a table or column without an index is an error, and a NULL
// key, like a key no row carries, yields nothing.
func TestSeekErrorsAndNulls(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, NULL), (2, 7)")
	none := func(int, int, []Value) error { return fmt.Errorf("unexpected row") }
	if err := db.Seek("nope", 0, []Value{int64(1)}, none); err == nil {
		t.Fatal("seek of a missing table succeeded")
	}
	if err := db.Seek("t", 1, []Value{int64(7)}, none); err == nil {
		t.Fatal("seek of an unindexed column succeeded")
	}
	mustExec(t, db, "CREATE INDEX idx_k ON t (k)")
	if err := db.Seek("t", 1, []Value{nil, int64(8)}, none); err != nil {
		t.Fatal(err)
	}
	var got []int64
	if err := db.Seek("t", 0, []Value{int64(2), int64(2)}, func(k, _ int, row []Value) error {
		got = append(got, int64(k), row[0].(int64))
		return nil
	}); err != nil || fmt.Sprint(got) != "[0 2 1 2]" {
		t.Fatalf("seek of a repeated key = %v, %v; want each key sought", got, err)
	}
}

// A multi-key seek yields a row when its column equals one of the keys,
// once, however many of the keys it is filed under: a row moved off a
// sought key keeps a stale posting there until vacuum and is not yielded
// for it, a row filed under two sought keys comes once, and a row moved
// to NULL matches no key, a NULL key included.
func TestSeekerMultiKeyRecheck(t *testing.T) {
	for _, kind := range []string{"HASH", "BTREE"} {
		t.Run(kind, func(t *testing.T) {
			db := NewDB()
			db.setVacuumInterval(time.Hour)
			defer db.Close()
			mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
			mustExec(t, db, "CREATE INDEX idx_t_k ON t (k) USING "+kind)
			mustExec(t, db, "INSERT INTO t VALUES (1, 1), (2, 1), (3, 2), (4, 5)")
			mustExec(t, db, "UPDATE t SET k = 3 WHERE id = 2")    // stale under 1, live under 3
			mustExec(t, db, "UPDATE t SET k = 2 WHERE id = 1")    // stale under 1, live under 2
			mustExec(t, db, "UPDATE t SET k = NULL WHERE id = 4") // stale under 5
			tab := db.table("t")
			vis := visibility{snap: snapLatest}
			for _, c := range []struct {
				keys []Value
				want string
			}{
				{[]Value{int64(1)}, "[]"},
				{[]Value{int64(1), int64(2)}, "[1 3]"},
				{[]Value{int64(3), int64(1), int64(2)}, "[1 2 3]"},
				{[]Value{int64(2), int64(2)}, "[1 3]"},
				{[]Value{int64(5), nil}, "[]"},
			} {
				s := seeker{idx: tab.IndexOn(1)}
				s.seek(c.keys, nil)
				var got []int64
				for id, row := s.next(tab, vis); row != nil; id, row = s.next(tab, vis) {
					got = append(got, id)
				}
				if fmt.Sprint(got) != c.want {
					t.Errorf("seek of %v = %v, want %s", c.keys, got, c.want)
				}
			}
		})
	}
}
