package sqldb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DB is an embedded relational database instance. It is safe for concurrent
// use. Every DB runs under snapshot isolation (see mvcc.go): readers run
// lock-free against a snapshot epoch, and transactions read the database
// as of Begin plus their own writes. Writers run one at a time.
type DB struct {
	// writer is the database's one lock. It admits one writer at a time:
	// an auto-commit statement holds it for the statement, a transaction
	// from Begin until Commit or Rollback. Vacuum, checkpoints, Save, Dump
	// and Restore take it too, so each sees exactly the committed state.
	writer sync.Mutex

	// tables is the copy-on-write catalog: the map value is immutable and
	// republished whole by DDL (under writer), so lock-free planning and
	// execution can resolve tables with a single atomic load.
	tables atomic.Pointer[map[string]*Table]

	// gen is the schema generation, bumped by every DDL change (and its
	// rollback). Prepared plans record the generation they were built under
	// and are transparently rebuilt when it moves. Written under writer;
	// read atomically so Stmt.ensure can check it without a lock.
	gen atomic.Uint64
	// noIndex disables index access paths in the planner (see
	// setIndexAccess). Atomic: planning reads it lock-free.
	noIndex atomic.Bool

	// Snapshot state (see mvcc.go). epoch is the commit epoch: provisional
	// versions become visible when publishCommit stamps them and advances
	// it (always after the WAL append). txSeq hands out transaction IDs
	// for provisional stamps; snaps tracks active snapshots for vacuum.
	epoch            atomic.Uint64
	txSeq            atomic.Uint64
	snaps            snapTracker
	mvccCommits      atomic.Uint64
	mvccAborts       atomic.Uint64
	vacuumRuns       atomic.Uint64
	versionsVacuumed atomic.Uint64
	bgVacuums        atomic.Uint64

	// Background vacuum goroutine state (see mvcc.go), guarded by writer;
	// the goroutine runs while some table carries version history.
	vac         *vacuumer
	vacInterval time.Duration

	// stmts caches prepared statements by SQL text so repeated Query/Exec
	// calls parse and plan once.
	stmts *stmtCache
	// plans counts executed access paths and join strategies.
	plans planCounters

	// durable, when non-nil, is the write-ahead-log state of a database
	// opened with OpenDurable: every commit appends a logical record and is
	// acknowledged only once the record is on stable storage (per the
	// configured fsync policy). Nil for in-memory databases.
	durable *durability
}

// bumpSchemaGen advances the schema generation and eagerly clears cached
// compiled statements so plans drop their table/index references. Caller
// holds db.writer.
func (db *DB) bumpSchemaGen() {
	db.gen.Add(1)
	db.stmts.invalidateAll()
}

// tableMap returns the current catalog. The returned map is immutable;
// catalog changes republish a fresh map through putTable/delTable.
func (db *DB) tableMap() map[string]*Table { return *db.tables.Load() }

// storeTables publishes m as the whole catalog (bootstrap and restore).
// The caller must not mutate m afterwards.
func (db *DB) storeTables(m map[string]*Table) { db.tables.Store(&m) }

// putTable publishes the catalog with t added under key (copy-on-write;
// caller holds writer).
func (db *DB) putTable(key string, t *Table) {
	old := db.tableMap()
	next := make(map[string]*Table, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = t
	db.tables.Store(&next)
}

// delTable publishes the catalog with key removed (copy-on-write; caller
// holds writer).
func (db *DB) delTable(key string) {
	old := db.tableMap()
	next := make(map[string]*Table, len(old))
	for k, v := range old {
		if k != key {
			next[k] = v
		}
	}
	db.tables.Store(&next)
}

// Result reports the outcome of a write statement.
type Result struct {
	LastInsertID int64
	RowsAffected int64
}

// NewDB creates an empty database.
func NewDB() *DB {
	db := &DB{stmts: newStmtCache(DefaultStmtCacheCapacity)}
	db.storeTables(make(map[string]*Table))
	return db
}

func (db *DB) table(name string) *Table {
	return db.tableMap()[strings.ToLower(name)]
}

// TableNames returns the names of all tables in sorted order.
func (db *DB) TableNames() []string {
	m := db.tableMap()
	names := make([]string, 0, len(m))
	for _, t := range m {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// TableInfo returns the schema of the named table, or nil when absent.
func (db *DB) TableInfo(name string) *Schema {
	t := db.table(name)
	if t == nil {
		return nil
	}
	return t.Schema
}

// RowCount returns the number of rows in a table (0 when absent).
func (db *DB) RowCount(name string) int {
	t := db.table(name)
	if t == nil {
		return 0
	}
	return t.RowCount()
}

// Query executes a SELECT statement with optional positional arguments
// bound to `?` placeholders. Statements are parsed and planned once and
// cached by SQL text, so repeated calls skip straight to execution.
func (db *DB) Query(sql string, args ...any) (*ResultSet, error) {
	return db.stmts.get(db, sql).Query(args...)
}

// Exec executes a write or DDL statement through the statement cache.
// BEGIN/COMMIT/ROLLBACK are rejected here; use Begin for transactions.
func (db *DB) Exec(sql string, args ...any) (Result, error) {
	return db.stmts.get(db, sql).Exec(args...)
}

// errTxnControl rejects BEGIN/COMMIT/ROLLBACK outside resp. inside a
// transaction with the appropriate message.
const (
	errTxnControlExec = "sqldb: use DB.Begin for transaction control"
	errTxnControlTx   = "sqldb: nested transaction control is not supported"
)

// validateExec rejects statements Exec must not run and checks arguments.
func (p *prepared) validateExec(vals []Value, txnControlErr string) error {
	if p.sel != nil {
		return fmt.Errorf("sqldb: Exec cannot run SELECT; use Query")
	}
	if p.expl != nil {
		return fmt.Errorf("sqldb: Exec cannot run EXPLAIN; use Query")
	}
	switch p.write.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return fmt.Errorf("%s", txnControlErr)
	}
	return p.checkArgs(vals)
}

// newWriteCtx builds the write context for one auto-commit statement or
// replayed log record.
func (db *DB) newWriteCtx() *writeCtx {
	return &writeCtx{tx: db.txSeq.Add(1)}
}

// execPrepared runs a non-SELECT prepared statement as one auto-commit
// transaction. Caller holds writer. On a durable database the commit
// record is appended (in log order, under the writer) and its LSN
// returned; the caller waits for durability after releasing the writer
// so concurrent committers can share one fsync. The statement's
// provisional versions are published — made visible to snapshot readers
// — only after the append succeeds.
func (db *DB) execPrepared(s *Stmt, vals []Value) (Result, uint64, error) {
	p, err := s.ensure(db)
	if err != nil {
		return Result{}, 0, err
	}
	if err := p.validateExec(vals, errTxnControlExec); err != nil {
		return Result{}, 0, err
	}
	undo := &undoLog{}
	w := db.newWriteCtx()
	res, err := db.executeWrite(p, vals, undo, w)
	if err != nil {
		undo.rollback(db)
		db.abortProvisional(w.installed)
		return Result{}, 0, err
	}
	var lsn uint64
	// No-change statements (no undo entries) need no log record; this
	// keeps re-runs of idempotent DDL (gam.Open's CREATE ... IF NOT
	// EXISTS bootstrap) from growing the log at every process start.
	if d := db.durable; d != nil && len(undo.entries) > 0 {
		lsn, err = d.logCommit([]logStmt{{sql: s.sql, args: vals}})
		if err != nil {
			// The log is unavailable, so the write can never be made
			// durable: undo it and fail the statement.
			undo.rollback(db)
			db.abortProvisional(w.installed)
			return Result{}, 0, err
		}
	}
	db.publishCommit(w.installed)
	return res, lsn, nil
}

func normalizeArgs(args []any) ([]Value, error) {
	vals := make([]Value, len(args))
	for i, a := range args {
		v, err := Normalize(a)
		if err != nil {
			return nil, fmt.Errorf("sqldb: argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// ---------------------------------------------------------------------------
// Undo log

type undoEntry interface{ undo(db *DB) }

type undoLog struct {
	entries []undoEntry
}

func (u *undoLog) add(e undoEntry) { u.entries = append(u.entries, e) }

// rollback applies undo entries in reverse order. Caller holds db.writer.
func (u *undoLog) rollback(db *DB) {
	u.rollbackTo(db, 0)
}

// rollbackTo undoes every entry past mark, in reverse order, and truncates
// the log back to mark. It gives Tx.Exec statement-level atomicity: a
// statement that fails mid-way (say row 3 of a multi-row INSERT) unwinds
// only its own entries, leaving earlier statements of the transaction
// intact. Caller holds db.writer.
func (u *undoLog) rollbackTo(db *DB, mark int) {
	for i := len(u.entries) - 1; i >= mark; i-- {
		u.entries[i].undo(db)
	}
	u.entries = u.entries[:mark]
}

// insertUndo removes the rows one INSERT statement stored — they hold a
// contiguous row-ID range — AND restores the row/sequence counters captured
// before the statement. Undo entries run in reverse order, so the final
// rollback leaves the counters exactly where the transaction found them: a
// rolled-back transaction consumes no IDs, which keeps a live database
// byte-identical to one that recovers from the WAL (where rolled-back
// transactions never appear at all). The provisional versions are simply
// removed outright: fresh row IDs have single-version chains.
type insertUndo struct {
	table   string
	first   int64
	n       int
	prevRow int64
	prevSeq int64
}

func (e insertUndo) undo(db *DB) {
	if t := db.table(e.table); t != nil {
		t.undoInsert(e.first, e.n)
		t.nextRow = e.prevRow
		t.nextSeq = e.prevSeq
	}
}

// updateUndo unlinks the provisional version an update chained
// onto the row and removes exactly the index entries the update
// introduced (unless another version of the chain still needs them).
type updateUndo struct {
	table string
	rowID int64
	ver   *rowVersion
	added []idxKeyAdd
}

func (e updateUndo) undo(db *DB) {
	t := db.table(e.table)
	if t == nil {
		return
	}
	t.unlinkVersion(e.rowID, e.ver)
	if len(e.added) == 0 {
		return
	}
	head := t.head(e.rowID)
	for _, a := range e.added {
		if !chainHasKey(head, a.idx.Col, a.key) {
			a.idx.delete(a.key, e.rowID)
		}
	}
}

// deleteUndo unlinks the provisional deletion tombstone and restores
// the live-row count (index entries were never touched).
type deleteUndo struct {
	table string
	rowID int64
	ver   *rowVersion
}

func (e deleteUndo) undo(db *DB) {
	if t := db.table(e.table); t != nil {
		t.unlinkVersion(e.rowID, e.ver)
		t.live.Add(1)
	}
}

type createTableUndo struct{ name string }

func (e createTableUndo) undo(db *DB) {
	db.delTable(strings.ToLower(e.name))
	db.bumpSchemaGen()
}

type dropTableUndo struct{ table *Table }

func (e dropTableUndo) undo(db *DB) {
	db.putTable(strings.ToLower(e.table.Name), e.table)
	db.bumpSchemaGen()
}

type createIndexUndo struct {
	table string
	name  string
}

func (e createIndexUndo) undo(db *DB) {
	if t := db.table(e.table); t != nil {
		t.removeIndex(e.name)
	}
	db.bumpSchemaGen()
}

type dropIndexUndo struct {
	table string
	idx   *Index
}

func (e dropIndexUndo) undo(db *DB) {
	if t := db.table(e.table); t != nil {
		t.setIndex(e.idx.Name, e.idx)
	}
	db.bumpSchemaGen()
}

// ---------------------------------------------------------------------------
// Write-statement execution. Caller holds db.writer.

func (db *DB) executeWrite(p *prepared, args []Value, undo *undoLog, w *writeCtx) (Result, error) {
	// UPDATE and DELETE run on their cached plans (access path chosen and
	// columns bound once at prepare time).
	switch {
	case p.upd != nil:
		return db.executeUpdate(p.upd, args, undo, w)
	case p.del != nil:
		return db.executeDelete(p.del, args, undo, w)
	}
	switch s := p.write.(type) {
	case *InsertStmt:
		return db.executeInsert(s, args, undo, w)
	case *CreateTableStmt:
		return db.executeCreateTable(s, undo)
	case *CreateIndexStmt:
		return db.executeCreateIndex(s, undo, w)
	case *DropTableStmt:
		return db.executeDropTable(s, undo)
	case *DropIndexStmt:
		return db.executeDropIndex(s, undo)
	}
	return Result{}, fmt.Errorf("sqldb: unsupported statement %T", p.write)
}

// executeInsert runs an INSERT as one transition: every row is evaluated,
// validated and checked before the table changes at all, then all rows are
// stored together under consecutive row IDs, covered by one undo entry.
func (db *DB) executeInsert(st *InsertStmt, args []Value, undo *undoLog, w *writeCtx) (Result, error) {
	t := db.table(st.Table)
	if t == nil {
		return Result{}, fmt.Errorf("sqldb: no such table %q", st.Table)
	}
	// Map statement columns to schema positions.
	width := len(t.Schema.Columns)
	colPos := make([]int, 0, width)
	if len(st.Columns) == 0 {
		for i := 0; i < width; i++ {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range st.Columns {
			ci := t.Schema.ColumnIndex(c)
			if ci < 0 {
				return Result{}, fmt.Errorf("sqldb: no column %q in table %s", c, t.Name)
			}
			colPos = append(colPos, ci)
		}
	}
	penv := paramEnv(args)
	rows := make([][]Value, 0, len(st.Rows))
	var evalErr error // why the row after rows could not be built
build:
	for _, rowExprs := range st.Rows {
		if len(rowExprs) != len(colPos) {
			evalErr = fmt.Errorf("sqldb: INSERT expects %d values, got %d", len(colPos), len(rowExprs))
			break build
		}
		row := make([]Value, width)
		for i, e := range rowExprs {
			if row[colPos[i]], evalErr = e.Eval(penv); evalErr != nil {
				break build
			}
		}
		rows = append(rows, row)
	}
	// A failure of an earlier row comes first, as if rows went in one by one.
	seq, err := t.prepareRows(w, rows)
	if err == nil {
		err = evalErr
	}
	if err == nil && int64(len(rows)) >= math.MaxInt64-t.nextRow {
		// Row IDs stay below MaxInt64, so "the row after" never overflows.
		err = fmt.Errorf("sqldb: table %s has no row IDs left", t.Name)
	}
	if err != nil {
		return Result{}, err
	}
	prevRow, prevSeq := t.nextRow, t.nextSeq
	first := t.installRows(w, rows, seq)
	undo.add(insertUndo{table: t.Name, first: first, n: len(rows), prevRow: prevRow, prevSeq: prevSeq})
	// LastInsertID reports the last row's autoincrement value when present,
	// else its row ID.
	res := Result{RowsAffected: int64(len(rows)), LastInsertID: first + int64(len(rows)) - 1}
	if pk := t.Schema.PrimaryKeyIndex(); pk >= 0 {
		if n, ok := rows[len(rows)-1][pk].(int64); ok {
			res.LastInsertID = n
		}
	}
	return res, nil
}

// collectWriteMatches returns the IDs of rows satisfying the write plan's
// WHERE clause (nil = all), via the plan's precomputed access path. Rows
// resolve at the writer's visibility (newest committed state plus its own
// provisional versions); stale index entries awaiting vacuum are filtered
// by re-evaluating the WHERE clause against the visible row.
func (db *DB) collectWriteMatches(wp *writePlan, args []Value, w *writeCtx) ([]int64, error) {
	t := wp.t
	env := wp.newEnv(args)
	vis := w.vis()
	var ids []int64
	check := func(id int64, row []Value) error {
		if wp.where == nil {
			ids = append(ids, id)
			return nil
		}
		env.SetRow(0, row)
		v, err := wp.where.Eval(env)
		if err != nil {
			return err
		}
		b, isNull := toBool(v)
		if !isNull && b {
			ids = append(ids, id)
		}
		return nil
	}

	if wp.access.kind != accessScan {
		switch wp.access.kind {
		case accessEq:
			db.plans.indexEq.Add(1)
		case accessIn:
			db.plans.indexIn.Add(1)
		case accessRange:
			db.plans.indexRange.Add(1)
		}
		s, err := wp.access.seeker(env)
		if err != nil {
			return nil, err
		}
		for id, row := s.next(t, vis); row != nil; id, row = s.next(t, vis) {
			if err := check(id, row); err != nil {
				return nil, err
			}
		}
		return ids, nil
	}
	db.plans.fullScans.Add(1)
	var scanErr error
	t.scanVis(vis, func(id int64, row []Value) bool {
		if err := check(id, row); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	return ids, nil
}

func (db *DB) executeUpdate(p *updatePlan, args []Value, undo *undoLog, w *writeCtx) (Result, error) {
	ids, err := db.collectWriteMatches(&p.writePlan, args, w)
	if err != nil {
		return Result{}, err
	}
	t := p.t
	env := p.newEnv(args)
	vis := w.vis()
	var res Result
	for _, id := range ids {
		old := t.get(id, vis)
		if old == nil {
			continue
		}
		env.SetRow(0, old)
		next := make([]Value, len(old))
		copy(next, old)
		for i, e := range p.setExprs {
			v, err := e.Eval(env)
			if err != nil {
				return Result{}, err
			}
			next[p.setPos[i]] = v
		}
		if err := t.coerceRow(next); err != nil {
			return Result{}, err
		}
		ver, added, err := t.updateRow(w, id, next)
		if err != nil {
			return Result{}, err
		}
		undo.add(updateUndo{table: t.Name, rowID: id, ver: ver, added: added})
		res.RowsAffected++
	}
	return res, nil
}

func (db *DB) executeDelete(p *deletePlan, args []Value, undo *undoLog, w *writeCtx) (Result, error) {
	ids, err := db.collectWriteMatches(&p.writePlan, args, w)
	if err != nil {
		return Result{}, err
	}
	t := p.t
	var res Result
	for _, id := range ids {
		if ver := t.deleteRow(w, id); ver != nil {
			undo.add(deleteUndo{table: t.Name, rowID: id, ver: ver})
			res.RowsAffected++
		}
	}
	return res, nil
}

func (db *DB) executeCreateTable(st *CreateTableStmt, undo *undoLog) (Result, error) {
	key := strings.ToLower(st.Name)
	if _, exists := db.tableMap()[key]; exists {
		if st.IfNotExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("sqldb: table %q already exists", st.Name)
	}
	schema, err := NewSchema(st.Columns)
	if err != nil {
		return Result{}, err
	}
	db.putTable(key, NewTable(st.Name, schema))
	db.bumpSchemaGen()
	undo.add(createTableUndo{name: st.Name})
	return Result{}, nil
}

func (db *DB) executeCreateIndex(st *CreateIndexStmt, undo *undoLog, w *writeCtx) (Result, error) {
	t := db.table(st.Table)
	if t == nil {
		return Result{}, fmt.Errorf("sqldb: no such table %q", st.Table)
	}
	if _, exists := t.indexMap()[st.Name]; exists && st.IfNotExists {
		return Result{}, nil
	}
	if _, err := t.createIndex(st.Name, st.Column, st.Kind, st.Unique, w.vis()); err != nil {
		return Result{}, err
	}
	db.bumpSchemaGen()
	undo.add(createIndexUndo{table: t.Name, name: st.Name})
	return Result{}, nil
}

func (db *DB) executeDropTable(st *DropTableStmt, undo *undoLog) (Result, error) {
	key := strings.ToLower(st.Name)
	t, exists := db.tableMap()[key]
	if !exists {
		if st.IfExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("sqldb: no such table %q", st.Name)
	}
	db.delTable(key)
	db.bumpSchemaGen()
	undo.add(dropTableUndo{table: t})
	return Result{}, nil
}

func (db *DB) executeDropIndex(st *DropIndexStmt, undo *undoLog) (Result, error) {
	find := func() (*Table, *Index) {
		if st.Table != "" {
			t := db.table(st.Table)
			if t == nil {
				return nil, nil
			}
			return t, t.indexMap()[st.Name]
		}
		for _, t := range db.tableMap() {
			if idx, ok := t.indexMap()[st.Name]; ok {
				return t, idx
			}
		}
		return nil, nil
	}
	t, idx := find()
	if idx == nil {
		if st.IfExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("sqldb: no such index %q", st.Name)
	}
	t.removeIndex(idx.Name)
	db.bumpSchemaGen()
	undo.add(dropIndexUndo{table: t.Name, idx: idx})
	return Result{}, nil
}

// ---------------------------------------------------------------------------
// Transactions

// Tx is a transaction. Begin takes the writer lock and only then
// captures the snapshot, so no commit lands between the transaction's
// reads and its writes: it reads the database as of Begin plus its own
// writes, and that is the newest committed state until it commits. It
// holds the writer lock until Commit or Rollback.
type Tx struct {
	db   *DB
	undo *undoLog
	done bool
	// logged accumulates the transaction's write statements for the WAL
	// (durable databases only). Commit appends them as ONE record, so
	// recovery replays the transaction atomically or not at all.
	logged []logStmt

	// The Begin snapshot, the provisional-version stamp and the versions
	// installed so far.
	id        uint64
	snap      uint64
	installed []*rowVersion
	// published is set from Publish to Commit: the transaction takes no
	// more statements but still holds the writer lock. lsn is the log
	// record Publish appended (0 for none), which Commit waits for.
	published bool
	lsn       uint64
}

// Begin opens a transaction. Like SQLite's BEGIN IMMEDIATE it takes the
// writer lock first, waiting for an open transaction to finish, and then
// captures its snapshot. A read that must not wait for a writer takes a
// snapshot of its own instead (Query, QueryEach).
func (db *DB) Begin() *Tx {
	db.writer.Lock()
	return &Tx{
		db:   db,
		undo: &undoLog{},
		id:   db.txSeq.Add(1),
		snap: db.snaps.acquire(db),
	}
}

// errTxFinished is returned by a call on a transaction that can no longer
// take it.
var errTxFinished = errors.New("sqldb: transaction already finished")

// Exec runs a write statement inside the transaction. Statements go through
// the database's shared statement cache, so a transaction re-issuing the
// same shapes as the non-transactional path parses nothing anew.
func (tx *Tx) Exec(sql string, args ...any) (Result, error) {
	if tx.done {
		return Result{}, errTxFinished
	}
	vals, err := normalizeArgs(args)
	if err != nil {
		return Result{}, err
	}
	db := tx.db
	p, err := db.stmts.get(db, sql).ensure(db)
	if err != nil {
		return Result{}, err
	}
	if err := p.validateExec(vals, errTxnControlTx); err != nil {
		return Result{}, err
	}
	// The statement installs straight into the transaction's version list.
	w := &writeCtx{tx: tx.id, installed: tx.installed}
	// Statements are atomic within the transaction: a failure unwinds the
	// statement's own changes immediately (not at Rollback), so a caller
	// that ignores the error and commits anyway commits exactly the
	// successful statements — which is also exactly what the WAL records.
	mark, installedMark := len(tx.undo.entries), len(tx.installed)
	res, err := db.executeWrite(p, vals, tx.undo, w)
	if err != nil {
		tx.undo.rollbackTo(db, mark)
		db.abortProvisional(w.installed[installedMark:])
		return Result{}, err
	}
	tx.installed = w.installed
	// Statements that changed nothing (UPDATE matching no rows, CREATE
	// TABLE IF NOT EXISTS hitting an existing table) leave no undo entries
	// and need no log record: replaying them is a no-op by definition.
	if db.durable != nil && len(tx.undo.entries) > mark {
		tx.logged = append(tx.logged, logStmt{sql: sql, args: vals})
	}
	return res, nil
}

// Query runs a SELECT inside the transaction: it observes the Begin
// snapshot plus the transaction's own writes — repeatable reads for
// everything the transaction did not touch.
func (tx *Tx) Query(sql string, args ...any) (*ResultSet, error) {
	if tx.done {
		return nil, errTxFinished
	}
	vals, err := normalizeArgs(args)
	if err != nil {
		return nil, err
	}
	return tx.db.stmts.get(tx.db, sql).collect(vals, tx.vis())
}

// vis is the visibility the transaction reads at.
func (tx *Tx) vis() visibility {
	return visibility{snap: tx.snap, tx: tx.id}
}

// Publish is the first step of Commit. It appends the transaction's
// statements as one log record on a durable database and then publishes
// its versions — stamped with the commit epoch, which is advanced last —
// so snapshot readers can never observe a commit the log does not
// contain. The transaction takes no further statement, but it keeps the
// writer lock until Commit, so a caller can make state derived from the
// commit visible before the next writer begins. A Publish that fails has
// rolled the transaction back.
func (tx *Tx) Publish() error {
	if tx.done {
		return errTxFinished
	}
	db := tx.db
	if d := db.durable; d != nil && len(tx.logged) > 0 {
		lsn, err := d.logCommit(tx.logged)
		if err != nil {
			// The log is unavailable: the transaction cannot be made
			// durable, so it must not become visible either.
			tx.abort()
			return err
		}
		tx.lsn = lsn
	}
	db.publishCommit(tx.installed)
	tx.done, tx.published = true, true
	return nil
}

// Commit makes the transaction's changes permanent: it publishes them
// (Publish) unless the caller already did, releases the writer lock, and
// then waits for the log record to reach stable storage per the fsync
// policy. The wait happens after the lock is released, so concurrent
// committers are acknowledged by a shared fsync (group commit). When the
// wait fails the changes are already visible; the error says they may not
// survive a crash.
func (tx *Tx) Commit() error {
	if !tx.published {
		if err := tx.Publish(); err != nil {
			return err
		}
	}
	tx.published = false
	lsn := tx.lsn
	tx.finish()
	if lsn != 0 {
		return tx.db.durable.wait(lsn)
	}
	return nil
}

// finish releases the transaction's writer lock and its snapshot
// registration.
func (tx *Tx) finish() {
	tx.done = true
	tx.undo = nil
	tx.logged = nil
	tx.installed = nil
	tx.db.snaps.release(tx.snap)
	tx.db.writer.Unlock()
}

// Rollback reverts every change made in the transaction. Nothing reaches
// the WAL: a rolled-back transaction (including its DDL) is invisible to
// recovery, and its provisional versions — never published — are
// unlinked before the writer lock is released.
func (tx *Tx) Rollback() error {
	if tx.done {
		return errTxFinished
	}
	tx.abort()
	return nil
}

// abort unlinks the transaction's changes and finishes it.
func (tx *Tx) abort() {
	tx.undo.rollback(tx.db)
	tx.db.abortProvisional(tx.installed)
	tx.finish()
}
