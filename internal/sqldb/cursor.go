package sqldb

// Volcano-style pull execution. Every SELECT — materialized Query and
// streaming QueryCursor alike — runs through the producer pipeline in this
// file: an access-path producer at the bottom (full scan, index candidate
// list, ordered B-tree traversal), one join producer per JOIN clause
// stacked on top, and a selectCursor driving WHERE evaluation, projection
// and LIMIT/OFFSET at the top. Materializing execution is just "drain the
// cursor"; there is exactly one execution engine.
//
// Pipeline breakers (GROUP BY, DISTINCT, and ORDER BY that an index cannot
// satisfy) buffer their input before emitting, as in any Volcano engine.
// Everything else streams: the first row leaves the engine before the
// second is produced, and memory stays O(1) in the result size.

import (
	"errors"
	"fmt"
	"sort"
)

// Cursor is a streaming query result. Rows are pulled one at a time with
// Next; a nil row with a nil error marks exhaustion. Close releases the
// cursor's resources and is idempotent.
//
// Cursors do not lock the database: a cursor pins a snapshot epoch at
// open, Next takes no database lock at all, and every row reflects exactly
// that snapshot, so writers make progress while a large result streams
// out. The snapshot is released at Close (or exhaustion), unblocking
// vacuum. Any schema change (DDL or snapshot restore) invalidates the
// cursor: Next then fails with ErrCursorInvalidated.
//
// The slice returned by Next is reused between calls; copy the values you
// need before calling Next again. A Cursor must not be used from multiple
// goroutines concurrently.
type Cursor interface {
	// Columns returns the output column names.
	Columns() []string
	// Next returns the next row, or (nil, nil) once the result is
	// exhausted. The returned slice is only valid until the next call.
	Next() ([]Value, error)
	// Close releases the cursor. Further Next calls fail.
	Close() error
}

// ErrCursorInvalidated is returned by Cursor.Next when a schema change
// (DDL, Restore) occurred after the cursor was opened.
var ErrCursorInvalidated = errors.New("sqldb: cursor invalidated by schema change")

var errCursorClosed = errors.New("sqldb: cursor is closed")

// orderedChunkSize bounds how many row IDs an ordered index traversal
// pulls per refill, so ORDER BY ... LIMIT consumers stop the B-tree walk
// after roughly one chunk instead of collecting every matching entry.
const orderedChunkSize = 256

// QueryCursor executes a SELECT and returns a streaming cursor over its
// rows. See Cursor for locking and invalidation semantics.
func (db *DB) QueryCursor(sql string, args ...any) (Cursor, error) {
	return db.stmts.get(db, sql).QueryCursor(args...)
}

// QueryEach executes a SELECT and streams its rows through fn under a
// single consistent statement snapshot (like Query) without materializing
// a result set (like QueryCursor). The iteration holds a snapshot epoch,
// not a database lock. The row slice passed to fn is reused between calls;
// fn must copy anything it keeps. A non-nil error from fn stops the
// iteration and is returned.
func (db *DB) QueryEach(sql string, fn func(row []Value) error, args ...any) error {
	return db.stmts.get(db, sql).QueryEach(fn, args...)
}

// QueryEach executes the prepared statement as a SELECT, streaming rows
// to fn under one snapshot. See DB.QueryEach.
func (s *Stmt) QueryEach(fn func(row []Value) error, args ...any) error {
	vals, err := normalizeArgs(args)
	if err != nil {
		return err
	}
	db := s.db
	snap := db.snaps.acquire(db)
	defer db.snaps.release(snap)
	return s.eachVis(fn, vals, visibility{snap: snap, lockRows: true})
}

// eachVis runs the QueryEach drain pinned to vis; the caller owns the
// snapshot registration.
func (s *Stmt) eachVis(fn func(row []Value) error, vals []Value, vis visibility) error {
	db := s.db
	p, err := s.ensure(db)
	if err != nil {
		return err
	}
	if p.expl != nil {
		rs, err := db.explainResult(p.expl)
		if err != nil {
			return err
		}
		for _, row := range rs.Rows {
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	}
	if p.sel == nil {
		return fmt.Errorf("sqldb: QueryEach requires a SELECT statement")
	}
	if err := p.checkArgs(vals); err != nil {
		return err
	}
	c := newSelectCursor(db, p.sel, vals, true, vis)
	defer c.close()
	return c.each(fn)
}

// QueryCursor executes the prepared statement as a streaming SELECT.
func (s *Stmt) QueryCursor(args ...any) (Cursor, error) {
	vals, err := normalizeArgs(args)
	if err != nil {
		return nil, err
	}
	db := s.db
	snap := db.snaps.acquire(db)
	c, err := s.cursorVis(vals, visibility{snap: snap, lockRows: true})
	if err != nil {
		db.snaps.release(snap)
		return nil, err
	}
	c.ownSnap = true
	return c, nil
}

// cursorVis builds the public cursor handle pinned to vis (planning is
// lock-free).
func (s *Stmt) cursorVis(vals []Value, vis visibility) (*dbCursor, error) {
	db := s.db
	p, err := s.ensure(db)
	if err != nil {
		return nil, err
	}
	if p.expl != nil {
		// EXPLAIN yields a small, already-materialized plan rendering; the
		// cursor serves the static rows with no engine pipeline behind it.
		rs, err := db.explainResult(p.expl)
		if err != nil {
			return nil, err
		}
		return &dbCursor{db: db, static: rs, cols: rs.Columns, gen: db.gen.Load(), snap: vis.snap}, nil
	}
	if p.sel == nil {
		return nil, fmt.Errorf("sqldb: QueryCursor requires a SELECT statement")
	}
	if err := p.checkArgs(vals); err != nil {
		return nil, err
	}
	return &dbCursor{
		db:    db,
		inner: newSelectCursor(db, p.sel, vals, true, vis),
		cols:  p.sel.projNames,
		gen:   db.gen.Load(),
		snap:  vis.snap,
	}, nil
}

// QueryCursor runs a streaming SELECT inside the transaction, observing
// its own (uncommitted) writes like Tx.Query does: the cursor reads at the
// transaction's snapshot (which the transaction owns — the cursor does not
// release it) and sees the transaction's provisional versions. Writes the
// transaction makes while the cursor is open may or may not be observed.
func (tx *Tx) QueryCursor(sql string, args ...any) (Cursor, error) {
	if tx.done {
		return nil, errTxFinished
	}
	vals, err := normalizeArgs(args)
	if err != nil {
		return nil, err
	}
	return tx.db.stmts.get(tx.db, sql).cursorVis(vals, tx.vis())
}

// QueryEach streams a SELECT's rows through fn inside the transaction,
// with Tx.Query's visibility (the transaction's own writes included) and
// DB.QueryEach's contract: one statement snapshot and a reused row slice.
func (tx *Tx) QueryEach(sql string, fn func(row []Value) error, args ...any) error {
	if tx.done {
		return errTxFinished
	}
	vals, err := normalizeArgs(args)
	if err != nil {
		return err
	}
	return tx.db.stmts.get(tx.db, sql).eachVis(fn, vals, tx.vis())
}

// dbCursor is the public cursor handle: it wraps the lock-free engine
// cursor with schema-generation validation and the pinned snapshot's
// lifetime.
type dbCursor struct {
	db     *DB
	inner  *selectCursor
	cols   []string
	gen    uint64
	closed bool

	snap    uint64 // pinned snapshot epoch
	ownSnap bool   // this cursor registered snap and must release it

	// static serves pre-materialized rows (EXPLAIN) with no engine cursor;
	// inner is nil for the cursor's whole lifetime then.
	static *ResultSet
	spos   int
}

// Columns returns the output column names.
func (c *dbCursor) Columns() []string { return c.cols }

// releaseSnap hands a cursor-owned snapshot back to the tracker so vacuum
// can advance past it. Idempotent.
func (c *dbCursor) releaseSnap() {
	if c.ownSnap {
		c.ownSnap = false
		c.db.snaps.release(c.snap)
	}
}

// Next returns the next row, or (nil, nil) at exhaustion.
func (c *dbCursor) Next() ([]Value, error) {
	if c.closed {
		return nil, errCursorClosed
	}
	if c.static != nil {
		if c.spos >= len(c.static.Rows) {
			c.releaseSnap()
			return nil, nil
		}
		row := c.static.Rows[c.spos]
		c.spos++
		return row, nil
	}
	db := c.db
	if db.gen.Load() != c.gen {
		c.releaseSnap()
		return nil, ErrCursorInvalidated
	}
	row, err := c.inner.step()
	if row == nil {
		// Terminal (exhaustion or error): stop pinning the vacuum horizon
		// even if the caller forgets to Close.
		c.releaseSnap()
	}
	return row, err
}

// Close releases the cursor's buffered state and a cursor-owned snapshot.
// Idempotent.
func (c *dbCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.inner != nil {
		c.inner.close()
		c.inner = nil // release snapshots, hash tables and buffers
	}
	c.releaseSnap()
	return nil
}

// ---------------------------------------------------------------------------
// Engine cursor

// selectCursor executes one SELECT as a pull pipeline at its execution's
// snapshot. It takes no database lock: row access synchronizes on the
// row-map read lock alone.
type selectCursor struct {
	ex *selectExec
	// reuseRow makes step return one shared output buffer (the streaming
	// Cursor contract); the materializing drain keeps it off so ResultSet
	// rows are independent slices.
	reuseRow bool
	started  bool
	done     bool

	// Streaming state (non-grouped, non-distinct, order already satisfied).
	streaming bool
	prod      rowProducer
	skip      int64 // OFFSET rows still to drop
	remain    int64 // LIMIT rows still to emit; -1 = unlimited
	rowBuf    []Value

	// Buffered state (pipeline breakers: GROUP BY, DISTINCT, real sorts).
	buf [][]Value
	pos int
}

func newSelectCursor(db *DB, p *selectPlan, args []Value, reuseRow bool, vis visibility) *selectCursor {
	return &selectCursor{
		ex:       &selectExec{db: db, p: p, env: p.newEnv(args), vis: vis},
		reuseRow: reuseRow,
	}
}

// step returns the next output row, or (nil, nil) at exhaustion.
func (c *selectCursor) step() ([]Value, error) {
	if !c.started {
		if err := c.start(); err != nil {
			c.done = true
			return nil, err
		}
	}
	if c.done {
		return nil, nil
	}
	if c.streaming {
		return c.stepStreaming()
	}
	if c.pos >= len(c.buf) {
		c.done = true
		c.buf = nil
		return nil, nil
	}
	row := c.buf[c.pos]
	c.pos++
	return row, nil
}

// drain runs the cursor to completion, returning all rows at once (the
// materializing Query path).
func (c *selectCursor) drain() ([][]Value, error) {
	if !c.started {
		if err := c.start(); err != nil {
			c.done = true
			return nil, err
		}
	}
	if !c.streaming {
		rows := c.buf
		if c.pos > 0 {
			rows = rows[c.pos:]
		}
		c.buf = nil
		c.done = true
		return rows, nil
	}
	var out [][]Value
	for {
		row, err := c.step()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// start decides between the streaming and buffered pipelines and builds
// the producer chain. It runs lazily on the first step, so a cursor opened
// but never read does no work.
func (c *selectCursor) start() error {
	c.started = true
	p := c.ex.p
	c.streaming = !p.grouped && !p.st.Distinct && (len(p.st.OrderBy) == 0 || p.orderSatisfied)
	if !c.streaming {
		rows, err := c.ex.runBuffered()
		if err != nil {
			return err
		}
		c.buf = rows
		return nil
	}
	skip, remain, err := c.ex.evalLimitOffset()
	if err != nil {
		return err
	}
	c.skip, c.remain = skip, remain
	if c.remain == 0 {
		// LIMIT 0: done before touching any table (or counter).
		c.done = true
		return nil
	}
	if c.remain > 0 && c.remain+c.skip <= 1<<20 {
		c.ex.orderedHint = int(c.remain + c.skip)
	}
	prod, err := c.ex.buildProducer()
	if err != nil {
		return err
	}
	c.prod = prod
	if c.reuseRow {
		c.rowBuf = make([]Value, len(p.projExprs))
	}
	return nil
}

// close releases engine-cursor resources. Idempotent.
func (c *selectCursor) close() {
	c.done = true
	c.buf = nil
}

// each streams every output row to fn (the QueryEach drain).
func (c *selectCursor) each(fn func(row []Value) error) error {
	for {
		row, err := c.step()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

func (c *selectCursor) stepStreaming() ([]Value, error) {
	ex := c.ex
	for {
		ok, err := c.prod.next(ex)
		if err != nil {
			c.done = true
			return nil, err
		}
		if !ok {
			c.done = true
			return nil, nil
		}
		pass, err := ex.evalWhere()
		if err != nil {
			c.done = true
			return nil, err
		}
		if !pass {
			continue
		}
		if c.skip > 0 {
			c.skip--
			continue
		}
		row := c.rowBuf
		if row == nil {
			row = make([]Value, len(ex.p.projExprs))
		}
		if err := ex.projectInto(row); err != nil {
			c.done = true
			return nil, err
		}
		if c.remain > 0 {
			c.remain--
			if c.remain == 0 {
				// Row production stops before the source is exhausted.
				ex.db.plans.earlyLimitHit.Add(1)
				c.done = true
			}
		}
		return row, nil
	}
}

// ---------------------------------------------------------------------------
// Row producers

// rowProducer is one stage of the pull pipeline: next advances the
// execution's row environment to the next produced tuple.
type rowProducer interface {
	next(ex *selectExec) (bool, error)
}

// buildProducer assembles the access-path producer for the driving
// relation and stacks one join producer per JOIN clause on top. The driver
// is rels[0] except for a swapped (RIGHT) join, whose producer drives from
// the preserved right-hand relation and probes rels[0].
func (ex *selectExec) buildProducer() (rowProducer, error) {
	p := ex.p
	base := p.rels[p.driver]
	a := &p.access
	c := &ex.db.plans

	var prod rowProducer
	switch {
	case a.kind == accessScan:
		c.fullScans.Add(1)
		prod = newScanProducer(base, ex.orderedHint)
	case a.ordered:
		c.orderedScans.Add(1)
		op, err := newOrderedProducer(ex, base)
		if err != nil {
			return nil, err
		}
		prod = op
	default:
		switch a.kind {
		case accessEq:
			c.indexEq.Add(1)
		case accessIn:
			c.indexIn.Add(1)
		case accessRange:
			c.indexRange.Add(1)
		}
		ids, err := collectAccessIDs(a, ex.env)
		if err != nil {
			return nil, err
		}
		prod = &idListProducer{rel: base, ids: ids}
	}

	for i := range p.joins {
		rel := p.rels[i+1]
		if p.joins[i].swapped {
			rel = p.rels[0]
		}
		jp := &joinProducer{child: prod, plan: &p.joins[i], rel: rel}
		jp.init(ex)
		prod = jp
	}
	return prod, nil
}

// scanProducer emits the base table's rows in ascending row-ID order. It
// walks a loaded view of the table's live ID slice by position and
// re-loads (re-synchronizing via binary search) whenever the table's
// mutation counter moves, so an open cursor survives concurrent inserts,
// deletes and ID-slice compaction without snapshotting anything. Row
// visibility comes from the execution's snapshot, so a reload
// never changes which rows the cursor observes.
//
// Rows are resolved a run at a time into ahead: back-to-back row-map
// probes overlap their cache misses, which one probe per pulled row —
// interleaved with the consumer's work — cannot. Resolving early is safe
// because the snapshot fixes every row's visible version. Runs start
// small, so a consumer that stops after a few rows resolves few, and grow
// toward scanRunSize.
type scanProducer struct {
	rel    relBinding
	ids    []int64
	pos    int
	lastID int64
	mut    uint64

	ahead [][]Value
	apos  int
	run   int
}

// scanRunSize caps how many rows one scanProducer refill resolves.
const scanRunSize = 256

func newScanProducer(rel relBinding, hint int) *scanProducer {
	run := 16
	if hint > run {
		run = min(hint, scanRunSize)
	}
	return &scanProducer{rel: rel, ids: rel.table.ids.load(), mut: rel.table.mut.Load(), run: run}
}

func (s *scanProducer) next(ex *selectExec) (bool, error) {
	if s.apos == len(s.ahead) && !s.refill(ex) {
		return false, nil
	}
	ex.env.SetRow(s.rel.off, s.ahead[s.apos])
	s.apos++
	return true, nil
}

// refill resolves the next run of visible rows into ahead, reporting
// whether any remain.
func (s *scanProducer) refill(ex *selectExec) bool {
	t := s.rel.table
	if m := t.mut.Load(); m != s.mut {
		// The ID slice may have been appended to, compacted or truncated
		// since the last refill; continue after the last row examined. Row
		// IDs are monotone, so this never re-emits a row.
		s.ids = t.ids.load()
		s.pos = sort.Search(len(s.ids), func(i int) bool { return s.ids[i] > s.lastID })
		s.mut = m
	}
	if s.ahead == nil {
		// One buffer for the whole scan, sized to the largest run it needs.
		s.ahead = make([][]Value, 0, min(scanRunSize, len(s.ids)-s.pos))
	}
	s.ahead, s.apos = s.ahead[:0], 0
	for s.pos < len(s.ids) && len(s.ahead) < s.run {
		id := s.ids[s.pos]
		s.pos++
		s.lastID = id
		if row := t.get(id, ex.vis); row != nil {
			s.ahead = append(s.ahead, row) // nil: tombstone, or invisible at this snapshot
		}
	}
	s.run = min(s.run*4, scanRunSize)
	return len(s.ahead) > 0
}

// idListProducer emits the rows of a precomputed candidate ID list (the
// equality, IN-list and range index access paths). Rows deleted since the
// list was collected come back nil from Get and are skipped.
type idListProducer struct {
	rel relBinding
	ids []int64
	pos int
}

func (p *idListProducer) next(ex *selectExec) (bool, error) {
	for p.pos < len(p.ids) {
		id := p.ids[p.pos]
		p.pos++
		row := p.rel.table.get(id, ex.vis)
		if row == nil {
			continue
		}
		ex.env.SetRow(p.rel.off, row)
		return true, nil
	}
	return false, nil
}

// orderedStage sequences the phases of an ordered traversal: rows with
// NULL keys live outside the B-tree and are served at the NULL end of the
// order (first ascending, last descending); bounds from a WHERE range
// predicate exclude NULLs entirely.
type orderedStage int

const (
	stageNulls orderedStage = iota
	stageTree
	stageDone
)

// orderedProducer walks a B-tree index in (possibly descending) key order,
// pulling row IDs in bounded chunks so a LIMIT consumer stops the
// traversal after roughly one chunk. Chunks always end at a key-run
// boundary; the next refill resumes strictly beyond the last completed
// key, which stays correct even if the tree changed between pulls.
type orderedProducer struct {
	rel relBinding
	a   *accessPlan

	lo, hi       Value
	hasLo, hasHi bool

	stages   []orderedStage
	stageIdx int

	nullIDs   []int64
	nullsInit bool
	nullPos   int

	chunk     []int64
	chunkKeys []Value // entry key per chunk ID (stale-entry check)
	runStarts []int   // chunk offsets where a new key run begins (desc only)
	chunkPos  int
	chunkSize int
	treeDone  bool
	resumeKey Value
	hasResume bool
}

func newOrderedProducer(ex *selectExec, rel relBinding) (*orderedProducer, error) {
	a := &ex.p.access
	lo, hi, hasLo, hasHi, empty, err := a.evalBounds(ex.env)
	if err != nil {
		return nil, err
	}
	p := &orderedProducer{rel: rel, a: a, lo: lo, hi: hi, hasLo: hasLo, hasHi: hasHi}
	// Size the first chunk to the consumer's LIMIT when known, so an
	// ORDER BY ... LIMIT n pulls ~n entries instead of a full chunk; a
	// WHERE clause may reject rows, in which case later refills grow the
	// chunk geometrically toward full size.
	p.chunkSize = orderedChunkSize
	if hint := ex.orderedHint; hint > 0 && hint < orderedChunkSize {
		p.chunkSize = hint
	}
	includeNulls := !hasLo && !hasHi
	switch {
	case empty:
		p.stages = []orderedStage{stageDone}
	case includeNulls && !a.desc: // NULL sorts first ascending
		p.stages = []orderedStage{stageNulls, stageTree, stageDone}
	case includeNulls: // NULL sorts last descending
		p.stages = []orderedStage{stageTree, stageNulls, stageDone}
	default:
		p.stages = []orderedStage{stageTree, stageDone}
	}
	return p, nil
}

func (p *orderedProducer) next(ex *selectExec) (bool, error) {
	t := p.rel.table
	col := p.a.idx.Col
	// Index entries are maintained lazily (vacuum removes postings whose
	// key no longer appears in the row's version chain), so an entry's key
	// can be stale for the version visible at this snapshot. Emitting such
	// an entry would place the row at the wrong position of the key order
	// (or emit it twice); require the visible row to still carry the
	// entry's key.
	emit := func(id int64, key Value, isNull bool) bool {
		row := t.get(id, ex.vis)
		if row == nil {
			return false
		}
		if v := row[col]; isNull && v != nil || !isNull && (v == nil || Compare(v, key) != 0) {
			return false
		}
		ex.env.SetRow(p.rel.off, row)
		return true
	}
	for {
		switch p.stages[p.stageIdx] {
		case stageNulls:
			if !p.nullsInit {
				p.nullIDs = p.a.idx.NullRowIDs()
				p.nullsInit = true
			}
			for p.nullPos < len(p.nullIDs) {
				id := p.nullIDs[p.nullPos]
				p.nullPos++
				if emit(id, nil, true) {
					return true, nil
				}
			}
			p.stageIdx++
		case stageTree:
			for {
				for p.chunkPos < len(p.chunk) {
					id := p.chunk[p.chunkPos]
					key := p.chunkKeys[p.chunkPos]
					p.chunkPos++
					if emit(id, key, false) {
						return true, nil
					}
				}
				if p.treeDone {
					break
				}
				p.refill()
			}
			p.stageIdx++
		case stageDone:
			return false, nil
		}
	}
}

// refill pulls the next chunk of row IDs from the tree. Collection runs
// past the nominal chunk size until the current key's run is complete, so
// the resume bound (exclusive on the last collected key) is exact. Each
// refill after the first grows the chunk geometrically: a small first
// chunk serves LIMIT consumers, full chunks amortize long traversals.
func (p *orderedProducer) refill() {
	p.chunk = p.chunk[:0]
	p.chunkKeys = p.chunkKeys[:0]
	p.chunkPos = 0
	size := p.chunkSize
	if next := size * 4; next < orderedChunkSize {
		p.chunkSize = next
	} else {
		p.chunkSize = orderedChunkSize
	}
	var lastKey Value
	full, stopped := false, false
	if !p.a.desc {
		lo, loIncl, hasLo := p.lo, p.a.loIncl, p.hasLo
		if p.hasResume {
			lo, loIncl, hasLo = p.resumeKey, false, true
		}
		p.a.idx.Range(lo, p.hi, hasLo, p.hasHi, loIncl, p.a.hiIncl, func(key Value, id int64) bool {
			if full && Compare(key, lastKey) != 0 {
				p.resumeKey, p.hasResume = lastKey, true
				stopped = true
				return false
			}
			p.chunk = append(p.chunk, id)
			p.chunkKeys = append(p.chunkKeys, key)
			lastKey = key
			if len(p.chunk) >= size {
				full = true
			}
			return true
		})
		if !stopped {
			p.treeDone = true
		}
		return
	}

	hi, hiIncl, hasHi := p.hi, p.a.hiIncl, p.hasHi
	if p.hasResume {
		hi, hiIncl, hasHi = p.resumeKey, false, true
	}
	p.runStarts = p.runStarts[:0]
	p.a.idx.RangeDesc(p.lo, hi, p.hasLo, hasHi, p.a.loIncl, hiIncl, func(key Value, id int64) bool {
		if len(p.chunk) == 0 || Compare(key, lastKey) != 0 {
			if full {
				p.resumeKey, p.hasResume = lastKey, true
				stopped = true
				return false
			}
			p.runStarts = append(p.runStarts, len(p.chunk))
		}
		p.chunk = append(p.chunk, id)
		p.chunkKeys = append(p.chunkKeys, key)
		lastKey = key
		if len(p.chunk) >= size {
			full = true
		}
		return true
	})
	if !stopped {
		p.treeDone = true
	}
	// The tree yields ties in descending row-ID order, but the stable sort
	// this traversal replaces keeps ties ascending; reverse each run of
	// equal keys (runs are never split across chunks). Keys within a run
	// compare equal, so only the IDs need reversing.
	for ri, start := range p.runStarts {
		end := len(p.chunk)
		if ri+1 < len(p.runStarts) {
			end = p.runStarts[ri+1]
		}
		for l, r := start, end-1; l < r; l, r = l+1, r-1 {
			p.chunk[l], p.chunk[r] = p.chunk[r], p.chunk[l]
		}
	}
}

// joinProducer joins its child's tuples against one probe relation (the
// syntactically-right relation, or — for a swapped RIGHT join — the left
// one). For each driving tuple it iterates the candidate probe rows of the
// planned strategy, re-checking the full ON clause (nil for CROSS joins:
// every pair matches); an unmatched driving tuple of a LEFT JOIN is
// emitted once with the probe columns NULL-padded.
type joinProducer struct {
	child rowProducer
	plan  *joinPlan
	rel   relBinding

	hash     map[hashKey][][]Value // joinHashBuild: built once per execution
	rightIDs []int64               // joinNestedLoop: right table's row IDs

	haveLeft bool
	matched  bool
	candIDs  []int64
	candRows [][]Value
	pos      int
}

// init builds per-execution join state and counts the strategy that runs.
func (j *joinProducer) init(ex *selectExec) {
	switch j.plan.strategy {
	case joinHashBuild:
		ex.db.plans.hashJoins.Add(1)
		hash := make(map[hashKey][][]Value)
		col := j.plan.rightCol
		j.rel.table.scanVis(ex.vis, func(_ int64, row []Value) bool {
			k := row[col]
			if k == nil {
				return true
			}
			hk := makeHashKey(k)
			hash[hk] = append(hash[hk], row)
			return true
		})
		j.hash = hash
	case joinIndexLoop:
		ex.db.plans.indexJoins.Add(1)
	default:
		ex.db.plans.nestedJoins.Add(1)
		ids := make([]int64, 0, j.rel.table.RowCount())
		j.rel.table.scanVis(ex.vis, func(id int64, _ []Value) bool {
			ids = append(ids, id)
			return true
		})
		j.rightIDs = ids
	}
}

// startLeft resolves the candidate right rows for the freshly produced
// left tuple.
func (j *joinProducer) startLeft(ex *selectExec) error {
	j.pos, j.matched = 0, false
	j.candIDs, j.candRows = nil, nil
	switch j.plan.strategy {
	case joinIndexLoop:
		key, err := j.plan.keyExpr.Eval(ex.env)
		if err != nil {
			return err
		}
		if key != nil {
			ids := j.plan.idx.Lookup(key)
			sortInt64s(ids) // match the right table's scan order for ties
			j.candIDs = ids
		}
	case joinHashBuild:
		key, err := j.plan.keyExpr.Eval(ex.env)
		if err != nil {
			return err
		}
		if key != nil {
			j.candRows = j.hash[makeHashKey(key)]
		}
	default:
		j.candIDs = j.rightIDs
	}
	return nil
}

// nextCandidate returns the next candidate right row, or nil when the
// current left tuple's candidates are exhausted. Rows resolve at the
// execution's snapshot; stale index entries resolve to a row whose
// key no longer matches and are rejected by the ON re-check.
func (j *joinProducer) nextCandidate(ex *selectExec) []Value {
	if j.candRows != nil {
		if j.pos < len(j.candRows) {
			row := j.candRows[j.pos]
			j.pos++
			return row
		}
		return nil
	}
	for j.pos < len(j.candIDs) {
		id := j.candIDs[j.pos]
		j.pos++
		if row := j.rel.table.get(id, ex.vis); row != nil {
			return row
		}
	}
	return nil
}

func (j *joinProducer) next(ex *selectExec) (bool, error) {
	for {
		if !j.haveLeft {
			ok, err := j.child.next(ex)
			if err != nil || !ok {
				return ok, err
			}
			if err := j.startLeft(ex); err != nil {
				return false, err
			}
			j.haveLeft = true
		}
		for {
			row := j.nextCandidate(ex)
			if row == nil {
				break
			}
			ex.env.SetRow(j.rel.off, row)
			if j.plan.on != nil {
				v, err := j.plan.on.Eval(ex.env)
				if err != nil {
					return false, err
				}
				b, isNull := toBool(v)
				if isNull || !b {
					continue
				}
			}
			j.matched = true
			return true, nil
		}
		j.haveLeft = false
		if !j.matched && j.plan.kind == JoinLeft {
			ex.env.ClearRow(j.rel.off, j.rel.width)
			return true, nil
		}
	}
}
