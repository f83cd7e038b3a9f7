package sqldb

// Vectorized columnar batch execution (ROADMAP item 3). The Volcano cursor
// pays per-row interface dispatch, per-Next lock traffic and per-row
// expression evaluation; the batch leg instead materializes runs of ~1024
// rows at a time straight out of tablePart storage — one lock acquisition
// per batch instead of one per row — converts the referenced columns into
// typed slices (colbatch), and runs the filter/aggregate kernels in
// batch_kernels.go as tight typed loops.
//
// The leg is chosen per execution: the planner records batch-kernel
// coverage on the plan (selectPlan.batch, compiled in planSelect), and
// execution takes the vectorized path when batch execution is enabled and
// the table clears SetBatchMinRows. Everything the kernels don't cover —
// point and index access, joins, expressions outside the kernel set,
// pipeline breakers' own sort/distinct machinery — falls back to the row
// cursor, so results are byte-identical either way (the
// planner-equivalence oracle forces and checks both legs).
//
// Two producers exist:
//
//   - serialBatchScan walks the global sorted row-ID slice under the
//     caller's database lock (the cursor's per-step read lock, or the
//     single lock QueryEach holds for a whole drain), refilling one
//     colbatch per lock acquisition and re-synchronizing through the table
//     mutation counter exactly like the serial scanProducer.
//   - newBatchScanExchange runs when the table has more than one
//     partition: one worker per partition collects (id, row) runs under
//     the partition read lock, evaluates the filter kernels outside any
//     lock (row slices are immutable once published), and ships the
//     surviving rows as batches through the bounded parBatch channels of
//     the exchange (parallel.go); the consumer k-way-merges by row ID, so
//     output order matches serial.
//
// Both producers emit original row references; the batch-to-row adapter in
// cursor.go (stepBatch) applies the column projection, keeping the public
// Cursor API, QueryEach and export streaming untouched.

import (
	"sort"
	"sync/atomic"
)

// DefaultBatchMinRows is the cardinality threshold below which eligible
// statements stay on the row cursor: batch materialization has a fixed
// setup cost that a small scan never amortizes.
const DefaultBatchMinRows = 4096

// defaultBatchRows is how many rows travel in one columnar batch.
const defaultBatchRows = 1024

// batchSettings is the DB-level vectorized-execution hint, adjustable at
// runtime without any lock.
type batchSettings struct {
	// off disables the vectorized leg entirely (the zero value enables it:
	// batch execution is on by default).
	off atomic.Bool
	// minRows overrides DefaultBatchMinRows when positive.
	minRows atomic.Int64
	// rows overrides defaultBatchRows when positive (tests shrink it to
	// exercise batch-boundary conditions).
	rows atomic.Int32
}

// SetBatchExecution enables or disables the vectorized batch leg (enabled
// by default; disabling forces every statement onto the row cursor).
func (db *DB) SetBatchExecution(on bool) { db.batch.off.Store(!on) }

// BatchExecution reports whether the vectorized batch leg is enabled.
func (db *DB) BatchExecution() bool { return !db.batch.off.Load() }

// SetBatchMinRows sets the row-count threshold below which eligible
// statements stay on the row cursor (0 restores the default).
func (db *DB) SetBatchMinRows(n int64) {
	if n < 0 {
		n = 0
	}
	db.batch.minRows.Store(n)
}

func (db *DB) batchMinRows() int64 {
	if n := db.batch.minRows.Load(); n > 0 {
		return n
	}
	return DefaultBatchMinRows
}

// setBatchRows overrides the per-batch row count (0 restores the default);
// tests use it to exercise batch-boundary edge cases.
func (db *DB) setBatchRows(n int) {
	if n < 0 {
		n = 0
	}
	db.batch.rows.Store(int32(n))
}

func (db *DB) batchRows() int {
	if n := int(db.batch.rows.Load()); n > 0 {
		return n
	}
	return defaultBatchRows
}

// batchEligible reports whether a vectorized operator should run over t:
// batch execution is enabled and the exact scan cardinality clears the
// threshold. (Kernel coverage is the plan's side of the decision.)
func (db *DB) batchEligible(t *Table) bool {
	return db.BatchExecution() && int64(t.RowCount()) >= db.batchMinRows()
}

// BatchStats is a snapshot of the vectorized-execution configuration and
// counters (served as sql_batch on /api/stats).
type BatchStats struct {
	Enabled         bool   `json:"enabled"`
	MinRows         int64  `json:"min_rows"`
	RowsPerBatch    int    `json:"rows_per_batch"`
	BatchScans      uint64 `json:"batch_scans"`
	BatchAggregates uint64 `json:"batch_aggregates"`
}

// BatchStats returns the vectorized-execution counters.
func (db *DB) BatchStats() BatchStats {
	return BatchStats{
		Enabled:         db.BatchExecution(),
		MinRows:         db.batchMinRows(),
		RowsPerBatch:    db.batchRows(),
		BatchScans:      db.plans.batchScans.Load(),
		BatchAggregates: db.plans.batchAggs.Load(),
	}
}

// ---------------------------------------------------------------------------
// Columnar batches

// nullBits is a null bitmap: bit i set means row i of the batch is NULL in
// the extracted column.
type nullBits []uint64

func (n nullBits) set(i int)      { n[i>>6] |= 1 << (uint(i) & 63) }
func (n nullBits) get(i int) bool { return n[i>>6]&(1<<(uint(i)&63)) != 0 }

// colvec is one extracted column of a batch: the typed slice matching the
// declared column type plus a null bitmap. typed=false means at least one
// stored value did not match the declared type (snapshot loads bypass
// coercion) — kernels then fall back to generic loops over the boxed rows,
// which have identical semantics for any value mix.
type colvec struct {
	ok    bool // extracted for the current batch contents
	typ   Type // the type the extraction ran as
	typed bool // the typed slice is complete and trustworthy
	i64   []int64
	f64   []float64
	str   []string
	nulls nullBits
}

// colbatch holds up to batchRows rows column-major: the row IDs, the
// original (immutable) row references, and lazily extracted typed column
// vectors. Extraction happens on demand — only the columns the kernels
// actually touch are ever converted — and always outside storage locks.
type colbatch struct {
	n    int
	ids  []int64
	rows [][]Value
	cols []colvec
}

func newColbatch(width, capRows int) *colbatch {
	return &colbatch{
		ids:  make([]int64, 0, capRows),
		rows: make([][]Value, 0, capRows),
		cols: make([]colvec, width),
	}
}

func (b *colbatch) reset() {
	b.n = 0
	b.ids = b.ids[:0]
	b.rows = b.rows[:0]
	for i := range b.cols {
		b.cols[i].ok = false
	}
}

func (b *colbatch) add(id int64, row []Value) {
	b.ids = append(b.ids, id)
	b.rows = append(b.rows, row)
	b.n++
}

// col returns the extracted vector for column ci, extracting it on first
// use within the current batch. An extraction is only reused when it ran
// as the same type: two kernels can read one column as different types
// (e.g. a comparison as INT, then LIKE as TEXT), and serving the INT
// extraction to the TEXT kernel would index a stale (or empty) slice.
func (b *colbatch) col(ci int, typ Type) *colvec {
	v := &b.cols[ci]
	if !v.ok || v.typ != typ {
		b.extract(ci, typ)
	}
	return v
}

func (b *colbatch) extract(ci int, typ Type) {
	v := &b.cols[ci]
	v.ok, v.typ, v.typed = true, typ, true
	n := b.n
	words := (n + 63) / 64
	if cap(v.nulls) < words {
		v.nulls = make(nullBits, words)
	} else {
		v.nulls = v.nulls[:words]
		for i := range v.nulls {
			v.nulls[i] = 0
		}
	}
	switch typ {
	case TypeInt:
		if cap(v.i64) < n {
			v.i64 = make([]int64, n)
		} else {
			v.i64 = v.i64[:n]
		}
		for i := 0; i < n; i++ {
			switch x := b.rows[i][ci].(type) {
			case nil:
				v.nulls.set(i)
			case int64:
				v.i64[i] = x
			default:
				v.typed = false
				return
			}
		}
	case TypeFloat:
		if cap(v.f64) < n {
			v.f64 = make([]float64, n)
		} else {
			v.f64 = v.f64[:n]
		}
		for i := 0; i < n; i++ {
			switch x := b.rows[i][ci].(type) {
			case nil:
				v.nulls.set(i)
			case float64:
				v.f64[i] = x
			default:
				v.typed = false
				return
			}
		}
	case TypeText:
		if cap(v.str) < n {
			v.str = make([]string, n)
		} else {
			v.str = v.str[:n]
		}
		for i := 0; i < n; i++ {
			switch x := b.rows[i][ci].(type) {
			case nil:
				v.nulls.set(i)
			case string:
				v.str[i] = x
			default:
				v.typed = false
				return
			}
		}
	default:
		// BOOL and untyped columns take the generic boxed loops.
		v.typed = false
	}
}

// ---------------------------------------------------------------------------
// Batch producers

// batchSource is the consumer interface of the vectorized scan leg: merged
// filtered rows (original references, ascending by row ID), (nil, nil) at
// exhaustion. Implemented by serialBatchScan and the *parallelScan
// exchange.
type batchSource interface {
	next() ([]Value, error)
	close()
}

// serialBatchScan is the single-goroutine batch producer: it refills one
// colbatch per call from the global sorted row-ID slice and runs the
// filter kernels over it, so the per-row cost is a map load plus a typed
// comparison instead of a full expression-tree walk. In lock mode the
// caller holds db.mu (shared) across each next() call — dbCursor takes it
// per step, QueryEach for the whole drain — which is what makes the
// lock-free row reads safe: all storage mutations hold db.mu exclusively.
// Under MVCC no database lock is held; each row resolves through
// Table.get, which takes the partition read lock around the map access
// and picks the version visible at the execution's snapshot.
type serialBatchScan struct {
	t      *Table
	vis    visibility
	filter *boundFilter
	b      *colbatch

	out    parBatch // current filtered run (aliases b's compacted prefix)
	outPos int

	ids    []int64
	pos    int
	lastID int64
	mut    uint64
	first  bool
	done   bool
}

func newSerialBatchScan(ex *selectExec, bs *boundScan) *serialBatchScan {
	t := ex.p.rels[0].table
	return &serialBatchScan{
		t:      t,
		vis:    ex.vis,
		filter: bs.filter,
		b:      newColbatch(len(t.Schema.Columns), ex.db.batchRows()),
		ids:    t.ids.load(),
		first:  true,
	}
}

func (s *serialBatchScan) close() {}

// nextRun returns the remainder of the current filtered run, refilling as
// needed — the run-at-a-time fast path for QueryEach, which amortizes the
// pull machinery as well as the lock over whole batches. A nil run means
// exhaustion. Safe to interleave with next().
func (s *serialBatchScan) nextRun() ([][]Value, error) {
	for {
		if s.outPos < len(s.out.rows) {
			rows := s.out.rows[s.outPos:]
			s.outPos = len(s.out.rows)
			return rows, nil
		}
		if s.done {
			return nil, nil
		}
		if err := s.refill(); err != nil {
			s.done = true
			return nil, err
		}
	}
}

func (s *serialBatchScan) next() ([]Value, error) {
	for {
		if s.outPos < len(s.out.ids) {
			row := s.out.rows[s.outPos]
			s.outPos++
			return row, nil
		}
		if s.done {
			return nil, nil
		}
		if err := s.refill(); err != nil {
			s.done = true
			return nil, err
		}
	}
}

// refill materializes and filters the next batch. The scan position is
// re-synchronized through the table mutation counter exactly like the
// serial scanProducer, so writes between cursor steps never re-emit or
// skip a live row.
func (s *serialBatchScan) refill() error {
	t := s.t
	if s.first {
		s.mut, s.first = t.mut.Load(), false
	} else if m := t.mut.Load(); m != s.mut {
		s.ids = t.ids.load()
		s.pos = sort.Search(len(s.ids), func(i int) bool { return s.ids[i] > s.lastID })
		s.mut = m
	}
	b := s.b
	b.reset()
	max := cap(b.ids)
	for s.pos < len(s.ids) && b.n < max {
		id := s.ids[s.pos]
		s.pos++
		row := t.get(id, s.vis)
		if row == nil {
			continue // tombstone, or a version invisible at this snapshot
		}
		s.lastID = id
		b.add(id, row)
	}
	if s.pos >= len(s.ids) {
		s.done = true
	}
	ids, rows, err := filterBatch(s.filter, b)
	if err != nil {
		return err
	}
	s.out = parBatch{ids: ids, rows: rows}
	s.outPos = 0
	return nil
}

// filterBatch runs the bound filter kernels over b and compacts the
// surviving rows in place, returning the selected prefix. With no filter
// every row survives. The typed column vectors are dead after the kernel
// pass, so in-place compaction of ids/rows is safe.
func filterBatch(f *boundFilter, b *colbatch) ([]int64, [][]Value, error) {
	if f == nil {
		return b.ids, b.rows, nil
	}
	tri, err := f.eval(b)
	if err != nil {
		return nil, nil, err
	}
	k := 0
	for i := 0; i < b.n; i++ {
		if tri[i] == triTrue {
			b.ids[k], b.rows[k] = b.ids[i], b.rows[i]
			k++
		}
	}
	return b.ids[:k], b.rows[:k], nil
}

// newBatchScanExchange starts the partition exchange: workers ship batches
// of kernel-filtered (id, row) pairs — original row references — and the
// consumer's batch-to-row adapter applies the projection. In lock mode the
// caller holds db.mu (shared or exclusive); workers capture the partition
// set and schema generation before it is released and synchronize only on
// partition locks afterwards. Under MVCC no database lock is held and
// workers resolve rows at the execution's snapshot.
func newBatchScanExchange(ex *selectExec, bs *boundScan) *parallelScan {
	rel := ex.p.rels[0]
	parts := rel.table.partList()
	ps := &parallelScan{done: make(chan struct{}), streams: make([]*parStream, len(parts))}
	gen := ex.db.gen.Load()
	width := len(rel.table.Schema.Columns)
	rowsPer := ex.db.batchRows()
	for i, part := range parts {
		st := &parStream{ch: make(chan parBatch, parChanDepth), open: true}
		ps.streams[i] = st
		ps.wg.Add(1)
		// Each worker gets its own boundFilter fork: the bound constant
		// tree is shared read-only, the scratch vectors are private.
		go ps.batchWorker(ex.db, ex.vis, part, gen, bs.filter.fork(), width, rowsPer, st.ch)
	}
	return ps
}

// batchWorker streams one partition in columnar batches: runs of live
// (id, row) pairs are pulled under the partition read lock — one
// acquisition per batch — then the filter kernels run outside any lock
// (row slices are immutable once published) and the surviving rows are
// sent. The position is re-synchronized through the partition mutation
// counter exactly like the serial scanProducer, so concurrent inserts,
// deletes and compaction never re-emit or skip a live row.
func (ps *parallelScan) batchWorker(db *DB, vis visibility, part *tablePart, gen uint64, filter *boundFilter, width, rowsPer int, ch chan<- parBatch) {
	defer ps.wg.Done()
	defer close(ch)
	// The batches rotate through a fixed ring instead of being copied per
	// send. At most parChanDepth batches sit in the channel plus one held
	// by the consumer plus one being filled here, so with depth+2 buffers
	// a slot is reused only after the FIFO guarantees the consumer has
	// received a later batch from this stream — which it only does after
	// exhausting the earlier one.
	ring := make([]*colbatch, parChanDepth+2)
	for i := range ring {
		ring[i] = newColbatch(width, rowsPer)
	}
	var (
		ri     int
		pos    int
		lastID int64
		mut    uint64
		first  = true
	)
	for {
		b := ring[ri]
		b.reset()
		part.mu.RLock()
		if db.gen.Load() != gen {
			part.mu.RUnlock()
			ps.send(ch, parBatch{err: ErrCursorInvalidated})
			return
		}
		view := part.ids.load()
		if first {
			mut, first = part.mut.Load(), false
		} else if m := part.mut.Load(); m != mut {
			pos = sort.Search(len(view), func(i int) bool { return view[i] > lastID })
			mut = m
		}
		for pos < len(view) && b.n < rowsPer {
			id := view[pos]
			pos++
			row := part.rows[id].resolve(vis)
			if row == nil {
				continue // tombstone, or a version invisible at this snapshot
			}
			lastID = id
			b.add(id, row)
		}
		exhausted := pos >= len(view)
		part.mu.RUnlock()

		ids, rows, err := filterBatch(filter, b)
		if err != nil {
			ps.send(ch, parBatch{err: err})
			return
		}
		if len(ids) > 0 {
			if !ps.send(ch, parBatch{ids: ids, rows: rows}) {
				return
			}
			ri = (ri + 1) % len(ring)
		}
		if exhausted {
			return
		}
	}
}
