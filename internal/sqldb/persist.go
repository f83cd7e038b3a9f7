package sqldb

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// snapshot is the serializable on-disk image of a database.
type snapshot struct {
	Version int
	Tables  []tableSnapshot
}

type tableSnapshot struct {
	Name    string
	Columns []Column
	NextRow int64
	NextSeq int64
	RowIDs  []int64
	Rows    [][]Value
	Indexes []indexSnapshot
}

type indexSnapshot struct {
	Name   string
	Column string
	Kind   IndexKind
	Unique bool
}

const snapshotVersion = 1

func init() {
	// Register the concrete types stored inside Value (any) cells so the
	// gob codec can round-trip them.
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}

// Save writes a consistent snapshot of the whole database to path. The file
// is written atomically via a temporary file and rename.
// It waits for an open transaction and saves exactly the committed state;
// calling it from inside one's own transaction deadlocks. The file is
// encoded and written after the writer lock is released.
func (db *DB) Save(path string) error {
	db.writer.Lock()
	snap := db.buildSnapshot()
	db.writer.Unlock()

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sqldb: save: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sqldb: save: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sqldb: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sqldb: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sqldb: save: %w", err)
	}
	return nil
}

func (db *DB) buildSnapshot() *snapshot {
	snap := &snapshot{Version: snapshotVersion}
	tables := db.tableMap()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := tables[n]
		ts := tableSnapshot{
			Name:    t.Name,
			Columns: t.Schema.Columns,
			NextRow: t.nextRow,
			NextSeq: t.nextSeq,
		}
		// Scan emits live rows in ascending row-ID order, so snapshots (and
		// therefore checkpoints) are byte-reproducible.
		ts.RowIDs = make([]int64, 0, t.RowCount())
		ts.Rows = make([][]Value, 0, t.RowCount())
		t.Scan(func(id int64, row []Value) bool {
			ts.RowIDs = append(ts.RowIDs, id)
			ts.Rows = append(ts.Rows, row)
			return true
		})
		for _, idx := range t.Indexes() {
			if idx.Name == pkIndexName(t.Name) {
				continue // recreated automatically
			}
			ts.Indexes = append(ts.Indexes, indexSnapshot{
				Name: idx.Name, Column: idx.Column, Kind: idx.Kind, Unique: idx.Unique,
			})
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return snap
}

// Load reads a snapshot file previously written by Save and returns a new
// database populated with its contents.
func Load(path string) (*DB, error) {
	db := NewDB()
	if err := db.Restore(path); err != nil {
		return nil, err
	}
	return db, nil
}

// Restore replaces the database's entire contents with a snapshot file
// previously written by Save, in place: existing statement handles and the
// database reference itself stay valid. The snapshot is decoded and its
// tables rebuilt before any lock is taken; the swap itself is a single
// critical section under the writer lock.
//
// Restoring is a schema change: it bumps the schema generation so cached
// statement plans compiled against the pre-restore tables are rebuilt
// (serving them would read the replaced tables and return pre-restore
// rows). A statement already running finishes at its snapshot over the
// replaced tables, which it still holds.
//
// On a durable database, Restore also resets the WAL: the restored state
// is written as a new checkpoint covering every record logged so far, the
// log is rotated, and the covered segments pruned — the pre-restore log
// tail can never be replayed over the restored state. Restore returns
// only once the restored state is itself durable.
func (db *DB) Restore(path string) error {
	tables, err := loadTables(path)
	if err != nil {
		return err
	}
	db.writer.Lock()
	db.storeTables(tables)
	db.bumpSchemaGen()
	var snap *snapshot
	var lsn uint64
	if db.durable != nil {
		// Snapshot the restored state and its log position inside the
		// critical section; encode and fsync after releasing the writer.
		snap = db.buildSnapshot()
		lsn = db.durable.w.LastLSN()
	}
	db.writer.Unlock()
	if snap != nil {
		return db.restoreCheckpoint(snap, lsn)
	}
	return nil
}

// loadTables decodes a snapshot file into a fresh table map.
func loadTables(path string) (map[string]*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sqldb: load: %w", err)
	}
	defer f.Close()
	return decodeTables(bufio.NewReaderSize(f, 1<<20))
}

// decodeTables decodes a gob snapshot stream into a fresh table map. It
// backs both snapshot files (Save/Load/Restore) and durable checkpoints.
func decodeTables(r io.Reader) (map[string]*Table, error) {
	var snap snapshot
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("sqldb: load: corrupt snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("sqldb: load: unsupported snapshot version %d", snap.Version)
	}
	tables := make(map[string]*Table, len(snap.Tables))
	for _, ts := range snap.Tables {
		schema, err := NewSchema(ts.Columns)
		if err != nil {
			return nil, fmt.Errorf("sqldb: load: table %s: %w", ts.Name, err)
		}
		t := NewTable(ts.Name, schema)
		t.nextRow = ts.NextRow
		t.nextSeq = ts.NextSeq
		// Save writes one row ID per row, strictly ascending, each in
		// [1, NextRow], and NextRow below MaxInt64 (executeInsert keeps it
		// there): a repeated ID would lose a row, and one past NextRow
		// would be handed out again by the next INSERT.
		if len(ts.RowIDs) != len(ts.Rows) || ts.NextRow < 0 || ts.NextRow == math.MaxInt64 {
			return nil, fmt.Errorf("sqldb: load: table %s has %d row IDs for %d rows, next row ID %d", ts.Name, len(ts.RowIDs), len(ts.Rows), ts.NextRow)
		}
		prev := int64(0)
		for i, id := range ts.RowIDs {
			if id <= prev || id > ts.NextRow {
				return nil, fmt.Errorf("sqldb: load: table %s row ID %d after %d is not ascending within [1, %d]", ts.Name, id, prev, ts.NextRow)
			}
			prev = id
			row := ts.Rows[i]
			if len(row) != len(schema.Columns) {
				return nil, fmt.Errorf("sqldb: load: table %s row %d has %d values, want %d", ts.Name, id, len(row), len(schema.Columns))
			}
			t.loadRow(id, row)
		}
		for _, is := range ts.Indexes {
			if _, err := t.createIndex(is.Name, is.Column, is.Kind, is.Unique, visibility{snap: snapLatest}); err != nil {
				return nil, fmt.Errorf("sqldb: load: rebuild index %s: %w", is.Name, err)
			}
		}
		tables[toLowerASCII(ts.Name)] = t
	}
	return tables, nil
}

func toLowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
