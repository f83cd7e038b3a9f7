package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"genmapper/internal/cache"
)

// DefaultStmtCacheCapacity bounds the internal statement cache. Workloads
// issue a small set of statement shapes (the GAM repository uses ~30) many
// millions of times, so a few hundred entries give parse-once behavior
// without unbounded memory growth.
const DefaultStmtCacheCapacity = 512

// Stmt is a prepared statement: SQL parsed once and, for SELECT / UPDATE /
// DELETE, planned once. A Stmt is safe for concurrent use; executions share
// the immutable plan and carry all per-execution state privately.
//
// Plans depend on the schema (tables, columns, indexes), so each prepared
// form records the schema generation it was built under and transparently
// re-prepares after DDL.
type Stmt struct {
	db   *DB
	sql  string
	prep atomic.Pointer[prepared]
}

// prepared is one immutable compiled form of a statement.
type prepared struct {
	gen     uint64
	sel     *selectPlan  // non-nil for SELECT
	upd     *updatePlan  // non-nil for UPDATE
	del     *deletePlan  // non-nil for DELETE
	expl    *explainPlan // non-nil for EXPLAIN
	write   Statement    // parsed AST for every other statement
	nParams int
}

// checkArgs restores the seed engine's eager argument validation: a missing
// `?` binding errors deterministically instead of depending on whether the
// chosen access path happens to evaluate the parameter.
func (p *prepared) checkArgs(args []Value) error {
	if len(args) < p.nParams {
		return fmt.Errorf("sqldb: not enough arguments: need at least %d", p.nParams)
	}
	return nil
}

// statementParamCount returns the number of `?` positions a statement uses.
func statementParamCount(st Statement) int {
	max := 0
	visit := func(exprs ...Expr) {
		for _, e := range exprs {
			if e == nil {
				continue
			}
			if k := countParams(e); k > max {
				max = k
			}
		}
	}
	switch s := st.(type) {
	case *SelectStmt:
		visit(s.Where, s.Having, s.Limit, s.Offset)
		for _, it := range s.Items {
			visit(it.Expr)
		}
		for _, j := range s.Joins {
			visit(j.On)
		}
		visit(s.GroupBy...)
		for _, o := range s.OrderBy {
			visit(o.Expr)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			visit(row...)
		}
	case *UpdateStmt:
		for _, set := range s.Sets {
			visit(set.Expr)
		}
		visit(s.Where)
	case *DeleteStmt:
		visit(s.Where)
	case *ExplainStmt:
		// EXPLAIN never evaluates parameters; unbound `?` positions render
		// as "?" in the plan document.
		return 0
	}
	return max
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// ensure returns the statement's compiled form for the current schema
// generation, (re)parsing and (re)planning when needed. Planning reads
// only the copy-on-write catalog and atomic planner knobs, so it takes no
// database lock, whether a reader or a writer calls it. Concurrent callers
// may both prepare; each builds a private AST, so the losing Store is merely
// redundant work.
func (s *Stmt) ensure(db *DB) (*prepared, error) {
	gen := db.gen.Load()
	if p := s.prep.Load(); p != nil && p.gen == gen {
		return p, nil
	}
	st, err := Parse(s.sql)
	if err != nil {
		return nil, err
	}
	p := &prepared{gen: gen, nParams: statementParamCount(st)}
	switch stmt := st.(type) {
	case *SelectStmt:
		plan, err := planSelect(db, stmt)
		if err != nil {
			return nil, err
		}
		p.sel = plan
	case *UpdateStmt:
		plan, err := planUpdate(db, stmt)
		if err != nil {
			return nil, err
		}
		p.upd = plan
	case *DeleteStmt:
		plan, err := planDelete(db, stmt)
		if err != nil {
			return nil, err
		}
		p.del = plan
	case *ExplainStmt:
		ep, err := planExplain(db, stmt)
		if err != nil {
			return nil, err
		}
		p.expl = ep
	default:
		p.write = st
	}
	s.prep.Store(p)
	return p, nil
}

// Query executes the prepared statement as a SELECT. It takes no
// database lock at all — it registers a snapshot epoch and resolves row
// visibility against it, so a concurrent writer (even one holding the
// writer lock across a long transaction) never stalls the read.
func (s *Stmt) Query(args ...any) (*ResultSet, error) {
	vals, err := normalizeArgs(args)
	if err != nil {
		return nil, err
	}
	db := s.db
	snap := db.snaps.acquire(db)
	defer db.snaps.release(snap)
	return s.queryVis(vals, visibility{snap: snap})
}

// queryVis executes the statement as a SELECT at an explicit visibility,
// without any database lock (planning reads only the copy-on-write
// catalog and atomic knobs). The caller owns the snapshot registration.
func (s *Stmt) queryVis(vals []Value, vis visibility) (*ResultSet, error) {
	db := s.db
	p, err := s.ensure(db)
	if err != nil {
		return nil, err
	}
	if p.expl != nil {
		return db.explainResult(p.expl)
	}
	if p.sel == nil {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	if err := p.checkArgs(vals); err != nil {
		return nil, err
	}
	return db.executeSelectVis(p.sel, vals, vis)
}

// Exec executes the prepared statement as a write or DDL statement.
func (s *Stmt) Exec(args ...any) (Result, error) {
	vals, err := normalizeArgs(args)
	if err != nil {
		return Result{}, err
	}
	// Reject statement kinds Exec can never run BEFORE taking the writer
	// lock: db.Exec("COMMIT") while a transaction is open must error, not
	// block behind it forever.
	switch leadingKeyword(s.sql) {
	case "SELECT":
		return Result{}, fmt.Errorf("sqldb: Exec cannot run SELECT; use Query")
	case "EXPLAIN":
		return Result{}, fmt.Errorf("sqldb: Exec cannot run EXPLAIN; use Query")
	case "BEGIN", "COMMIT", "ROLLBACK":
		return Result{}, fmt.Errorf("%s", errTxnControlExec)
	}
	// Likewise surface syntax errors before locking (the caller may itself
	// hold an open transaction). Only the first use of a statement text
	// pays this extra parse; afterwards prep is populated.
	if s.prep.Load() == nil {
		if _, err := Parse(s.sql); err != nil {
			return Result{}, err
		}
	}
	db := s.db
	db.writer.Lock()
	res, lsn, err := db.execPrepared(s, vals)
	db.writer.Unlock()
	if err != nil {
		return Result{}, err
	}
	// Durability wait happens outside the lock: while this committer
	// waits on the fsync, the next one can already execute and join the
	// same flush round (group commit).
	if d := db.durable; d != nil && lsn != 0 {
		if err := d.wait(lsn); err != nil {
			return res, err
		}
	}
	return res, nil
}

// leadingKeyword returns the first keyword of a statement, upper-cased,
// skipping whitespace and `--` line comments. Every statement of this
// grammar starts with its defining keyword, so this classifies without
// parsing (and without any lock).
func leadingKeyword(sql string) string {
	i := 0
	for i < len(sql) {
		switch {
		case sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r':
			i++
		case strings.HasPrefix(sql[i:], "--"):
			for i < len(sql) && sql[i] != '\n' {
				i++
			}
		default:
			j := i
			for j < len(sql) && (sql[j] >= 'a' && sql[j] <= 'z' || sql[j] >= 'A' && sql[j] <= 'Z') {
				j++
			}
			return strings.ToUpper(sql[i:j])
		}
	}
	return ""
}

// Prepare returns a prepared statement for the SQL text, parsing and
// planning it immediately. Prepared statements are shared with the internal
// statement cache, so preparing a hot statement also warms the string-based
// Query/Exec path for the same text.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	s := db.stmts.get(db, sql)
	if _, err := s.ensure(db); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Statement cache

// stmtCache is a bounded, approximately-LRU cache of prepared statements
// keyed by SQL text. One cache serves DB.Query, DB.Exec, Tx.Exec and
// DB.Prepare, so every path gets parse-once behavior with no caller changes.
//
// Hits take a lock-free fast path (sync.Map lookup + atomic counter) so the
// concurrent read path the immutable-plan design enables does not serialize
// on a cache mutex; only every touchStride-th hit refreshes LRU recency
// under the lock. Misses, eviction and resizing take the mutex around the
// shared generic LRU (internal/cache).
type stmtCache struct {
	bySQL sync.Map // sql string -> *Stmt

	mu  sync.Mutex // guards lru
	lru *cache.LRU[string, *Stmt]

	hits, misses atomic.Uint64
	touches      atomic.Uint64
}

// touchStride is how many cache hits share one LRU-recency refresh.
const touchStride = 64

func newStmtCache(capacity int) *stmtCache {
	c := &stmtCache{lru: cache.New[string, *Stmt](capacity)}
	// Capacity eviction must also drop the lock-free lookup entry.
	c.lru.OnEvict(func(sql string, _ *Stmt) { c.bySQL.Delete(sql) })
	return c
}

// get returns the cached statement for sql, inserting a fresh (unprepared)
// one on miss. With a zero capacity every call returns a fresh statement,
// which restores parse-per-call behavior (used for benchmarking).
func (c *stmtCache) get(db *DB, sql string) *Stmt {
	if v, ok := c.bySQL.Load(sql); ok {
		c.hits.Add(1)
		if c.touches.Add(1)%touchStride == 0 {
			c.mu.Lock()
			// Touch is a no-op if the entry was evicted meanwhile.
			c.lru.Touch(sql)
			c.mu.Unlock()
		}
		return v.(*Stmt)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check: another goroutine may have inserted while we were unlocked.
	if v, ok := c.bySQL.Load(sql); ok {
		c.hits.Add(1)
		return v.(*Stmt)
	}
	c.misses.Add(1)
	s := &Stmt{db: db, sql: sql}
	if c.lru.Capacity() <= 0 {
		return s
	}
	c.bySQL.Store(sql, s)
	c.lru.Put(sql, s)
	return s
}

// invalidateAll clears every cached compiled form. Called on schema-
// generation bumps so plans release their *Table/*Index references at once
// (a dropped table's rows must not stay pinned until its statement text
// happens to be re-executed or evicted).
func (c *stmtCache) invalidateAll() {
	c.bySQL.Range(func(_, v any) bool {
		v.(*Stmt).prep.Store(nil)
		return true
	})
}

// StmtCacheStats reports statement-cache effectiveness.
type StmtCacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// StmtCacheStats returns hit/miss counters and occupancy of the statement
// cache.
func (db *DB) StmtCacheStats() StmtCacheStats {
	c := db.stmts
	c.mu.Lock()
	defer c.mu.Unlock()
	return StmtCacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Entries: c.lru.Len(), Capacity: c.lru.Capacity(),
	}
}

// ---------------------------------------------------------------------------
// Planner counters

// planCounters tallies executed access paths and join strategies.
type planCounters struct {
	fullScans     atomic.Uint64
	indexEq       atomic.Uint64
	indexIn       atomic.Uint64
	indexRange    atomic.Uint64
	orderedScans  atomic.Uint64
	indexJoins    atomic.Uint64
	hashJoins     atomic.Uint64
	nestedJoins   atomic.Uint64
	earlyLimitHit atomic.Uint64
}

// PlanStats is a snapshot of the planner's execution counters: how often
// each access path and join strategy actually ran.
type PlanStats struct {
	FullScans       uint64 `json:"full_scans"`
	IndexEqScans    uint64 `json:"index_eq_scans"`
	IndexInScans    uint64 `json:"index_in_scans"`
	IndexRangeScans uint64 `json:"index_range_scans"`
	OrderedScans    uint64 `json:"ordered_scans"`
	IndexJoins      uint64 `json:"index_joins"`
	HashJoins       uint64 `json:"hash_joins"`
	NestedJoins     uint64 `json:"nested_loop_joins"`
	EarlyLimitHits  uint64 `json:"early_limit_hits"`
}

// PlanStats returns a snapshot of the planner's execution counters.
func (db *DB) PlanStats() PlanStats {
	c := &db.plans
	return PlanStats{
		FullScans:       c.fullScans.Load(),
		IndexEqScans:    c.indexEq.Load(),
		IndexInScans:    c.indexIn.Load(),
		IndexRangeScans: c.indexRange.Load(),
		OrderedScans:    c.orderedScans.Load(),
		IndexJoins:      c.indexJoins.Load(),
		HashJoins:       c.hashJoins.Load(),
		NestedJoins:     c.nestedJoins.Load(),
		EarlyLimitHits:  c.earlyLimitHit.Load(),
	}
}

// BatchStats is the zero-valued counter set of the deleted vectorized leg.
// bench/e2e still reads it through genmapper.System.SQLBatchStats; it is
// deleted with that method when bench/ is next unfrozen (ROADMAP item 2).
//
// Deprecated: the engine has one execution leg; these counters stay zero.
type BatchStats struct {
	BatchScans      uint64 `json:"batch_scans"`
	BatchAggregates uint64 `json:"batch_aggregates"`
}

// ParallelStats is the zero-valued counter set of the deleted partition
// fan-out. bench/e2e still reads it through
// genmapper.System.SQLParallelStats; it is deleted with that method when
// bench/ is next unfrozen (ROADMAP item 2).
//
// Deprecated: scans no longer fan out; these counters stay zero.
type ParallelStats struct {
	ParallelScans      uint64 `json:"parallel_scans"`
	ParallelAggregates uint64 `json:"parallel_aggregates"`
}
