package sqldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genmapper/internal/wal"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default wal.SyncGroup).
	Sync wal.SyncPolicy
	// SegmentSize bounds WAL segment files (default 4 MiB).
	SegmentSize int64
	// CheckpointInterval is how often the background checkpointer wakes up
	// to check the log (default 30s). Zero keeps the default; negative
	// disables the background checkpointer (Checkpoint can still be called
	// explicitly).
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint once the log has grown this
	// many bytes past the last checkpoint (default = SegmentSize).
	CheckpointBytes int64
	// FS overrides the filesystem (fault-injection tests). Nil uses the
	// real directory passed to OpenDurable.
	FS wal.FS
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 30 * time.Second
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = o.SegmentSize
	}
	return o
}

// durability is the per-DB durable-write state: the WAL, the checkpoint
// store, and the background checkpointer.
type durability struct {
	w    *wal.WAL
	fs   wal.FS
	opts DurableOptions

	// ckptMu serializes checkpoints (background + explicit + Restore).
	ckptMu sync.Mutex
	// ckptLSN is the LSN the newest durable checkpoint covers.
	ckptLSN atomic.Uint64
	// ckptSize is the log size observed at the last checkpoint.
	ckptSize atomic.Int64

	checkpoints      atomic.Uint64
	recoveredRecords atomic.Uint64
	recoveries       atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// WALStats reports the durability subsystem's counters (all zero when the
// database was not opened with OpenDurable).
type WALStats struct {
	Enabled bool   `json:"enabled"`
	Policy  string `json:"policy,omitempty"`
	// Log counters (see wal.Stats).
	Appends             uint64 `json:"appends"`
	Fsyncs              uint64 `json:"fsyncs"`
	GroupCommits        uint64 `json:"group_commits"`
	MaxGroupSize        uint64 `json:"max_group_size"`
	Segments            int    `json:"segments"`
	SizeBytes           int64  `json:"size_bytes"`
	TornTailTruncations uint64 `json:"torn_tail_truncations"`
	// Recovery and checkpoint counters.
	Recoveries        uint64 `json:"recoveries"`
	RecoveredRecords  uint64 `json:"recovered_records"`
	Checkpoints       uint64 `json:"checkpoints"`
	CheckpointLSN     uint64 `json:"checkpoint_lsn"`
	CheckpointLagRecs uint64 `json:"checkpoint_lag_records"`
	LastLSN           uint64 `json:"last_lsn"`
	DurableLSN        uint64 `json:"durable_lsn"`
}

// WALStats returns the durability counters, or a zero value with
// Enabled=false for an in-memory database.
func (db *DB) WALStats() WALStats {
	d := db.durable
	if d == nil {
		return WALStats{}
	}
	ws := d.w.Stats()
	ckpt := d.ckptLSN.Load()
	lag := uint64(0)
	if ws.LastLSN > ckpt {
		lag = ws.LastLSN - ckpt
	}
	return WALStats{
		Enabled:             true,
		Policy:              d.opts.Sync.String(),
		Appends:             ws.Appends,
		Fsyncs:              ws.Fsyncs,
		GroupCommits:        ws.GroupCommits,
		MaxGroupSize:        ws.MaxGroupSize,
		Segments:            ws.Segments,
		SizeBytes:           ws.SizeBytes,
		TornTailTruncations: ws.TornTailTruncations,
		Recoveries:          d.recoveries.Load(),
		RecoveredRecords:    d.recoveredRecords.Load(),
		Checkpoints:         d.checkpoints.Load(),
		CheckpointLSN:       ckpt,
		CheckpointLagRecs:   lag,
		LastLSN:             ws.LastLSN,
		DurableLSN:          ws.DurableLSN,
	}
}

// ---------------------------------------------------------------------------
// Logical log records
//
// A record is one committed transaction: the SQL texts and bound arguments
// of its write statements, in execution order. Replaying the statements
// against the state the log was written over reproduces the exact same
// tables: row IDs and AUTOINCREMENT values are assigned deterministically,
// and expressions have no nondeterministic functions.

// logStmt is one statement of a commit record.
type logStmt struct {
	sql  string
	args []Value
}

// Value wire tags.
const (
	tagNull  = 'n'
	tagInt   = 'i'
	tagFloat = 'f'
	tagText  = 's'
	tagTrue  = 'T'
	tagFalse = 'F'
)

// encodeRecord renders a commit record payload.
func encodeRecord(stmts []logStmt) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) {
		n := binary.PutUvarint(tmp[:], x)
		buf.Write(tmp[:n])
	}
	putUvarint(uint64(len(stmts)))
	for _, st := range stmts {
		putUvarint(uint64(len(st.sql)))
		buf.WriteString(st.sql)
		putUvarint(uint64(len(st.args)))
		for _, v := range st.args {
			switch x := v.(type) {
			case nil:
				buf.WriteByte(tagNull)
			case int64:
				buf.WriteByte(tagInt)
				n := binary.PutVarint(tmp[:], x)
				buf.Write(tmp[:n])
			case float64:
				buf.WriteByte(tagFloat)
				binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(x))
				buf.Write(tmp[:8])
			case string:
				buf.WriteByte(tagText)
				putUvarint(uint64(len(x)))
				buf.WriteString(x)
			case bool:
				if x {
					buf.WriteByte(tagTrue)
				} else {
					buf.WriteByte(tagFalse)
				}
			default:
				// Normalize guarantees this can't happen; encode as text so
				// a bug degrades loudly at replay rather than panicking here.
				s := fmt.Sprintf("%v", x)
				buf.WriteByte(tagText)
				putUvarint(uint64(len(s)))
				buf.WriteString(s)
			}
		}
	}
	return buf.Bytes()
}

// decodeRecord parses a commit record payload.
func decodeRecord(p []byte) ([]logStmt, error) {
	r := bytes.NewReader(p)
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(r) }
	n, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("sqldb: wal record: %w", err)
	}
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("sqldb: wal record: implausible statement count %d", n)
	}
	stmts := make([]logStmt, 0, n)
	readString := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		if l > uint64(r.Len()) {
			return "", fmt.Errorf("string length %d exceeds record", l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	for i := uint64(0); i < n; i++ {
		sql, err := readString()
		if err != nil {
			return nil, fmt.Errorf("sqldb: wal record stmt %d: %w", i, err)
		}
		nargs, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("sqldb: wal record stmt %d: %w", i, err)
		}
		if nargs > uint64(len(p)) {
			return nil, fmt.Errorf("sqldb: wal record stmt %d: implausible arg count", i)
		}
		args := make([]Value, 0, nargs)
		for j := uint64(0); j < nargs; j++ {
			tag, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("sqldb: wal record stmt %d arg %d: %w", i, j, err)
			}
			switch tag {
			case tagNull:
				args = append(args, nil)
			case tagInt:
				x, err := binary.ReadVarint(r)
				if err != nil {
					return nil, err
				}
				args = append(args, x)
			case tagFloat:
				var b [8]byte
				if _, err := io.ReadFull(r, b[:]); err != nil {
					return nil, err
				}
				args = append(args, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			case tagText:
				s, err := readString()
				if err != nil {
					return nil, err
				}
				args = append(args, s)
			case tagTrue:
				args = append(args, true)
			case tagFalse:
				args = append(args, false)
			default:
				return nil, fmt.Errorf("sqldb: wal record stmt %d arg %d: unknown tag %q", i, j, tag)
			}
		}
		stmts = append(stmts, logStmt{sql: sql, args: args})
	}
	return stmts, nil
}

// logCommit appends one commit record for stmts and returns its LSN.
// The caller holds db.writer, so the append happens in commit order; the
// fsync wait does not.
func (d *durability) logCommit(stmts []logStmt) (uint64, error) {
	return d.w.Append(encodeRecord(stmts))
}

// wait blocks until the record at lsn is durable per the sync policy.
// Called WITHOUT db locks held, so concurrent committers can share one
// fsync (group commit).
func (d *durability) wait(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	return d.w.Durable(lsn)
}

// ---------------------------------------------------------------------------
// Open / recovery

// checkpoint file naming: checkpoint-<LSN>.snap, zero-padded so the
// lexicographically greatest is the newest.
const ckptPrefix = "checkpoint-"

func ckptName(lsn uint64) string { return fmt.Sprintf("%s%020d.snap", ckptPrefix, lsn) }

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	var lsn uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ".snap"), "%d", &lsn)
	return lsn, err == nil
}

// OpenDurable opens (or creates) a durable database rooted at dir: a
// checkpoint snapshot plus a write-ahead log of every commit since.
// Recovery loads the newest readable checkpoint, replays the log tail
// beyond it (verifying checksums and truncating a torn tail), and starts
// a background checkpointer. Every committed write — auto-commit Exec and
// Tx.Commit — is appended to the log before the commit is acknowledged,
// under the configured fsync policy. Close releases the log.
func OpenDurable(dir string, opts DurableOptions) (*DB, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if fs == nil {
		var err error
		if fs, err = wal.DirFS(dir); err != nil {
			return nil, err
		}
	}

	d := &durability{fs: fs, opts: opts}

	// 1. Newest readable checkpoint.
	tables, ckptLSN, err := loadNewestCheckpoint(fs)
	if err != nil {
		return nil, err
	}

	// 2. Open the log: validates segments, truncates a torn tail. The
	// checkpoint LSN floors the sequence so a fully-checkpointed (empty)
	// tail does not restart numbering below the snapshot.
	w, err := wal.Open(fs, wal.Options{Sync: opts.Sync, SegmentSize: opts.SegmentSize, StartLSN: ckptLSN})
	if err != nil {
		return nil, err
	}
	d.w = w

	db := NewDB()
	if tables != nil {
		db.storeTables(tables)
	}

	// 3. Replay the tail beyond the checkpoint. Statements run through the
	// normal executor but nothing is re-logged (db.durable is still nil).
	replayed := uint64(0)
	err = w.Replay(ckptLSN+1, func(lsn uint64, payload []byte) error {
		stmts, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("sqldb: recover record %d: %w", lsn, err)
		}
		if err := db.applyRecord(stmts); err != nil {
			return fmt.Errorf("sqldb: recover record %d: %w", lsn, err)
		}
		replayed++
		return nil
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	w.AdvanceTo(ckptLSN)
	d.ckptLSN.Store(ckptLSN)
	d.ckptSize.Store(w.Stats().SizeBytes)
	d.recoveredRecords.Store(replayed)
	d.recoveries.Store(1)

	db.durable = d
	if opts.CheckpointInterval > 0 {
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go db.checkpointLoop()
	}
	return db, nil
}

// loadNewestCheckpoint returns the table map of the newest checkpoint that
// decodes cleanly (nil when none exists) and the LSN it covers. An
// unreadable newer checkpoint falls back to the next older one: a crash
// mid-checkpoint must never take out the database.
func loadNewestCheckpoint(fs wal.FS) (map[string]*Table, uint64, error) {
	names, err := fs.List()
	if err != nil {
		return nil, 0, fmt.Errorf("sqldb: open durable: %w", err)
	}
	type ckpt struct {
		name string
		lsn  uint64
	}
	var ckpts []ckpt
	for _, n := range names {
		if lsn, ok := parseCkptName(n); ok {
			ckpts = append(ckpts, ckpt{n, lsn})
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].lsn > ckpts[j].lsn })
	var firstErr error
	for _, c := range ckpts {
		f, err := fs.Open(c.name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		tables, err := decodeTables(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return tables, c.lsn, nil
	}
	if len(ckpts) > 0 && firstErr != nil {
		// Every checkpoint is unreadable: refuse to silently start empty.
		return nil, 0, fmt.Errorf("sqldb: no readable checkpoint: %w", firstErr)
	}
	return nil, 0, nil
}

// applyRecord replays one commit record's statements as a single atomic
// unit, through the one write path a live commit takes: the record's
// versions install provisional and publishCommit then stamps them with
// the next epoch. The record was read from the log, so there is nothing
// to append before publishing. A failure rolls the record back and aborts
// recovery.
func (db *DB) applyRecord(stmts []logStmt) error {
	db.writer.Lock()
	defer db.writer.Unlock()
	undo := &undoLog{}
	w := db.newWriteCtx()
	fail := func(err error) error {
		undo.rollback(db)
		db.abortProvisional(w.installed)
		return err
	}
	for _, st := range stmts {
		p, err := db.stmts.get(db, st.sql).ensure(db)
		if err != nil {
			return fail(err)
		}
		if p.sel != nil {
			return fail(fmt.Errorf("sqldb: SELECT in wal record"))
		}
		//gmlint:ignore walack recovery replays records already in the log; re-appending them would double every commit
		if _, err := db.executeWrite(p, st.args, undo, w); err != nil {
			return fail(err)
		}
	}
	db.publishCommit(w.installed)
	return nil
}

// ---------------------------------------------------------------------------
// Checkpointing

// checkpointLoop is the background checkpointer: it snapshots the database
// and prunes covered log segments whenever the log has grown enough.
func (db *DB) checkpointLoop() {
	d := db.durable
	defer close(d.done)
	t := time.NewTicker(d.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			st := d.w.Stats()
			if st.LastLSN > d.ckptLSN.Load() &&
				st.SizeBytes-d.ckptSize.Load() >= d.opts.CheckpointBytes {
				//gmlint:ignore errdrop best effort: a failed checkpoint leaves the log longer but the database correct; the next tick retries
				_ = db.Checkpoint()
			}
		}
	}
}

// Checkpoint writes a durable snapshot of the current committed state and
// prunes log segments the snapshot covers. Concurrent reads proceed;
// writers are blocked only while the in-memory snapshot is built (row
// slices are immutable, so building is O(rows) pointer copying, with
// encoding and fsync happening outside all locks).
func (db *DB) Checkpoint() error {
	d := db.durable
	if d == nil {
		return fmt.Errorf("sqldb: Checkpoint on a non-durable database")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	// The writer waits out an open transaction, so the snapshot holds
	// exactly the state described by log records <= lsn.
	db.writer.Lock()
	snap := db.buildSnapshot()
	lsn := d.w.LastLSN()
	db.writer.Unlock()

	return d.writeCheckpoint(snap, lsn)
}

// writeCheckpoint encodes snap, installs it as the newest checkpoint
// covering lsn, and prunes obsolete segments and old checkpoints. Caller
// holds d.ckptMu.
func (d *durability) writeCheckpoint(snap *snapshot, lsn uint64) error {
	// The covered log prefix must itself be durable before the checkpoint
	// replaces it (checkpoint may otherwise survive a crash that eats
	// not-yet-synced records it claims to cover).
	if lsn > 0 {
		if err := d.w.Durable(lsn); err != nil {
			return err
		}
	}
	tmp := ckptName(lsn) + ".tmp"
	f, err := d.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		f.Close()
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := d.fs.Rename(tmp, ckptName(lsn)); err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	d.checkpoints.Add(1)
	d.ckptLSN.Store(lsn)

	// Seal the active segment so the covered records' segments become
	// prunable, then drop them and every older checkpoint.
	if err := d.w.Rotate(); err != nil {
		return err
	}
	if err := d.w.Prune(lsn); err != nil {
		return err
	}
	d.ckptSize.Store(d.w.Stats().SizeBytes)
	if names, err := d.fs.List(); err == nil {
		for _, n := range names {
			if l, ok := parseCkptName(n); ok && l < lsn {
				//gmlint:ignore errdrop stale-checkpoint removal is best effort; a leftover file is re-collected by the next checkpoint
				_ = d.fs.Remove(n)
			} else if strings.HasSuffix(n, ".tmp") && n != tmp {
				//gmlint:ignore errdrop orphaned tmp files are cosmetic; the next checkpoint retries the removal
				_ = d.fs.Remove(n)
			}
		}
	}
	return nil
}

// restoreCheckpoint makes the (already swapped-in) state the new durable
// truth: it is written as a checkpoint covering every existing log record,
// so recovery can never resurrect the pre-restore history. Used by
// Restore on a durable database.
func (db *DB) restoreCheckpoint(snap *snapshot, lsn uint64) error {
	d := db.durable
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.writeCheckpoint(snap, lsn)
}

// Close stops the background vacuum goroutine and the checkpointer and
// releases the WAL. It does not checkpoint: recovery replays the log tail
// on the next open. Close on an in-memory database only stops the vacuum
// goroutine (a no-op when none is running).
func (db *DB) Close() error {
	db.stopVacuumer()
	d := db.durable
	if d == nil {
		return nil
	}
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	return d.w.Close()
}

// ---------------------------------------------------------------------------
// Deterministic dump (recovery oracle)

// Dump writes a deterministic, byte-reproducible rendering of the entire
// database: schemas, index definitions, row contents in row-ID order, and
// the row/sequence counters. Two databases that dump identically behave
// identically for all future statements, which is exactly the equivalence
// the crash-recovery oracle tests assert. Like Save, it waits for an open
// transaction and renders exactly the committed state; calling it from
// inside one's own transaction deadlocks.
func (db *DB) Dump(w io.Writer) error {
	db.writer.Lock()
	defer db.writer.Unlock()
	return db.dumpLocked(w)
}

// dumpLocked is Dump for a caller that holds db.writer.
func (db *DB) dumpLocked(w io.Writer) error {
	tables := db.tableMap()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		t := tables[n]
		fmt.Fprintf(bw, "TABLE %s nextRow=%d nextSeq=%d\n", t.Name, t.nextRow, t.nextSeq)
		for _, col := range t.Schema.Columns {
			fmt.Fprintf(bw, "  COL %s %s pk=%v auto=%v notnull=%v\n",
				col.Name, col.Type, col.PrimaryKey, col.AutoIncrement, col.NotNull)
		}
		for _, idx := range t.Indexes() {
			fmt.Fprintf(bw, "  INDEX %s ON %s kind=%v unique=%v\n", idx.Name, idx.Column, idx.Kind, idx.Unique)
		}
		t.Scan(func(id int64, row []Value) bool {
			fmt.Fprintf(bw, "  ROW %d:", id)
			for _, v := range row {
				fmt.Fprintf(bw, " %s", FormatValue(v))
			}
			fmt.Fprintln(bw)
			return true
		})
	}
	return bw.Flush()
}

// DumpString returns Dump as a string (test helper).
func (db *DB) DumpString() string {
	var sb strings.Builder
	//gmlint:ignore errdrop strings.Builder writes cannot fail, so Dump to it cannot either
	_ = db.Dump(&sb)
	return sb.String()
}
