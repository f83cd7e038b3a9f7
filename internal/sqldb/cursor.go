package sqldb

// Volcano-style execution. Every SELECT — Query and QueryEach alike — runs
// through the producer pipeline in this file: an access-path producer at
// the bottom (full scan, index candidate list, ordered B-tree traversal),
// one join producer per JOIN clause stacked on top, and selectExec.run at
// the top, which pulls tuples from that chain, evaluates WHERE, OFFSET,
// LIMIT and the projection, and pushes each output row to a callback.
// Query is QueryEach with a collecting callback; there is exactly one
// execution engine.
//
// Pipeline breakers (GROUP BY, DISTINCT, and ORDER BY that an index cannot
// satisfy) buffer their input before emitting, as in any Volcano engine.
// Everything else streams: the first row leaves the engine before the
// second is produced, and memory stays O(1) in the result size.

import (
	"fmt"
	"strings"
)

// orderedChunkSize bounds how many row IDs an ordered index traversal
// pulls per refill, so ORDER BY ... LIMIT consumers stop the B-tree walk
// after roughly one chunk instead of collecting every matching entry.
const orderedChunkSize = 256

// QueryEach executes a SELECT and streams its rows through fn under a
// single consistent statement snapshot (like Query) without materializing
// a result set. The iteration holds a snapshot epoch, not a database
// lock, so writers and DDL proceed while fn runs: the statement finishes
// at its snapshot over the tables its plan bound, and the next statement
// re-plans. The row slice passed to fn is reused between calls; fn must
// copy anything it keeps. A non-nil error from fn stops the iteration and
// is returned.
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
	_, err = s.run(vals, visibility{snap: snap}, nil, fn)
	return err
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
	_, err = tx.db.stmts.get(tx.db, sql).run(vals, tx.vis(), nil, fn)
	return err
}

// run executes the statement as a SELECT (or EXPLAIN) at vis, hands each
// output row to fn and returns the output column names. Every Query and
// QueryEach of DB, Stmt and Tx ends here. all is nil, or the slice fn
// collects into (see selectExec.run). The caller owns the snapshot
// registration; planning takes no lock.
func (s *Stmt) run(vals []Value, vis visibility, all *[][]Value, fn func(row []Value) error) ([]string, error) {
	db := s.db
	p, err := s.ensure(db)
	if err != nil {
		return nil, err
	}
	if p.expl != nil {
		text, err := db.explainText(p.expl)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(text, "\n") {
			if err := fn([]Value{line}); err != nil {
				return nil, err
			}
		}
		return explainColumns, nil
	}
	if p.sel == nil {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	if err := p.checkArgs(vals); err != nil {
		return nil, err
	}
	ex := &selectExec{db: db, p: p.sel, env: p.sel.newEnv(vals), vis: vis}
	return p.sel.projNames, ex.run(all, fn)
}

// collect runs the statement and materializes its rows.
func (s *Stmt) collect(vals []Value, vis visibility) (*ResultSet, error) {
	var rows [][]Value
	cols, err := s.run(vals, vis, &rows, func(row []Value) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: cols, Rows: rows}, nil
}

// run executes the SELECT, handing each output row to fn. Streaming
// shapes stop the producer chain once LIMIT is met and project every row
// into one reused slice. Pipeline breakers hand over the rows they
// buffered. When fn collects into a slice, the caller passes it as all:
// streamed rows are then fresh slices fn may keep, and buffered rows are
// stored into *all whole, without calling fn.
func (ex *selectExec) run(all *[][]Value, fn func(row []Value) error) error {
	p := ex.p
	if p.grouped || p.st.Distinct || len(p.st.OrderBy) > 0 && !p.orderSatisfied {
		rows, err := ex.runBuffered()
		if err != nil {
			return err
		}
		if all != nil {
			*all = rows
			return nil
		}
		for _, row := range rows {
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	}
	skip, remain, err := ex.evalLimitOffset()
	if err != nil || remain == 0 {
		return err // LIMIT 0: done before touching any table (or counter)
	}
	if remain > 0 && remain+skip <= 1<<20 {
		ex.orderedHint = int(remain + skip)
	}
	prod, err := ex.buildProducer()
	if err != nil {
		return err
	}
	keep := all != nil
	var row []Value
	if !keep {
		row = make([]Value, len(p.projExprs))
	}
	for {
		ok, err := prod.next(ex)
		if err != nil || !ok {
			return err
		}
		pass, err := ex.evalWhere()
		if err != nil {
			return err
		}
		if !pass {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		if keep {
			row = make([]Value, len(p.projExprs))
		}
		if err := ex.projectInto(row); err != nil {
			return err
		}
		if remain > 0 {
			if remain--; remain == 0 {
				// Row production stops before the source is exhausted.
				ex.db.plans.earlyLimitHit.Add(1)
				return fn(row)
			}
		}
		if err := fn(row); err != nil {
			return err
		}
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
		s, err := a.seeker(ex.env)
		if err != nil {
			return nil, err
		}
		prod = &seekProducer{s: s}
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
// keeps the next row ID to examine and walks the table's row slots from
// there at each refill, so a running scan survives concurrent inserts,
// deletes and vacuum without snapshotting anything: row IDs only grow, so
// a refill never re-emits a row, and row visibility comes from the
// execution's snapshot, so a chunk added or dropped since the last refill
// never changes which rows the scan observes.
//
// Rows are resolved a run at a time into ahead: back-to-back slot probes
// overlap their cache misses, which one probe per pulled row —
// interleaved with the consumer's work — cannot. Resolving early is safe
// because the snapshot fixes every row's visible version. Runs start
// small, so a consumer that stops after a few rows resolves few, and grow
// toward scanRunSize.
type scanProducer struct {
	rel  relBinding
	from int64 // the next row ID to examine

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
	return &scanProducer{rel: rel, run: run}
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
	if s.ahead == nil {
		// One buffer for the whole scan, sized to the largest run it needs.
		s.ahead = make([][]Value, 0, min(scanRunSize, t.RowCount()))
	}
	s.ahead, s.apos = s.ahead[:0], 0
	t.eachHead(s.from, func(id int64, head *rowVersion) bool {
		s.from = id + 1
		if row := head.resolve(ex.vis); row != nil {
			s.ahead = append(s.ahead, row) // nil: tombstone, or invisible at this snapshot
		}
		return len(s.ahead) < s.run
	})
	s.run = min(s.run*4, scanRunSize)
	return len(s.ahead) > 0
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
	seek     seeker                // joinIndexLoop: the probe key's rows

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
		j.seek = seeker{idx: j.plan.idx}
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
		j.seek.seek(nil, key) // in row-ID order, the right table's scan order for ties
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
// execution's snapshot.
func (j *joinProducer) nextCandidate(ex *selectExec) []Value {
	if j.plan.strategy == joinIndexLoop {
		_, row := j.seek.next(j.rel.table, ex.vis)
		return row
	}
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
